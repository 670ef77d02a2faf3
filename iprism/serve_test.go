package iprism_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/iprism"
)

func TestServeRiskScoresOverHTTP(t *testing.T) {
	s, err := iprism.ServeRisk("127.0.0.1:0", iprism.RiskServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	road, err := iprism.NewStraightRoad(2, 3.5, -100, 400)
	if err != nil {
		t.Fatal(err)
	}
	ego := iprism.VehicleState{Pos: iprism.V(0, 1.75), Speed: 10}
	actors := []*iprism.Actor{
		iprism.NewVehicleActor(1, iprism.VehicleState{Pos: iprism.V(14, 1.75), Speed: 3}),
	}
	sc, err := iprism.NewScene(road, ego, actors, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := iprism.EncodeScene(sc)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+s.Addr()+"/v1/score", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Combined float64 `json:"combined_sti"`
		Actors   []struct {
			ID  int     `json:"id"`
			STI float64 `json:"sti"`
		} `json:"actors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Actors) != 1 || out.Actors[0].ID != 1 {
		t.Fatalf("actors = %+v", out.Actors)
	}
	if out.Actors[0].STI <= 0 {
		t.Errorf("slow lead STI = %v, want > 0", out.Actors[0].STI)
	}
}

// The zero-value RiskServerConfig scores multi-actor scenes on the
// shared-expansion engine, and ?explain=1 says so.
func TestServeRiskZeroConfigExplainsShared(t *testing.T) {
	s, err := iprism.ServeRisk("127.0.0.1:0", iprism.RiskServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	road, err := iprism.NewStraightRoad(2, 3.5, -100, 400)
	if err != nil {
		t.Fatal(err)
	}
	ego := iprism.VehicleState{Pos: iprism.V(0, 1.75), Speed: 10}
	actors := []*iprism.Actor{
		iprism.NewVehicleActor(1, iprism.VehicleState{Pos: iprism.V(14, 1.75), Speed: 3}),
		iprism.NewVehicleActor(2, iprism.VehicleState{Pos: iprism.V(-40, 5.25), Speed: 8}),
	}
	sc, err := iprism.NewScene(road, ego, actors, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := iprism.EncodeScene(sc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+"/v1/score?explain=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Provenance *struct {
			Engine string `json:"engine"`
		} `json:"provenance"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Provenance == nil || out.Provenance.Engine != "shared" {
		t.Errorf("provenance = %+v, want engine shared", out.Provenance)
	}
}
