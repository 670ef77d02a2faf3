package iprism

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/agent"
)

func TestComputeTubeAndRender(t *testing.T) {
	road, _ := NewStraightRoad(2, 3.5, -50, 300)
	ego := VehicleState{Pos: V(0, 1.75), Speed: 10}
	actors := []*Actor{NewVehicleActor(1, VehicleState{Pos: V(15, 1.75), Speed: 2})}

	cfg := DefaultReachConfig()
	cfg.RecordPoints = true
	tube := ComputeTube(road, ego, actors, cfg)
	if tube.Volume <= 0 || len(tube.Points) == 0 {
		t.Fatalf("tube = %+v", tube)
	}

	eval := NewEvaluator(DefaultReachConfig())
	risk, _ := eval.Score(context.Background(), Query{Map: road, Ego: ego, Actors: actors}, nil)
	svg := RenderSVG(RenderScene{
		Map: road, Ego: ego, Actors: actors,
		Risk: risk,
		Tube: &tube, Title: "facade",
	}, RenderOptions{Window: 60})
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "facade") {
		t.Error("render output malformed")
	}
}

func TestEpisodeTraceRoundTripViaFacade(t *testing.T) {
	scn := GenerateScenarios(LeadSlowdown, 5, 3)[0]
	w, err := scn.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := RunRecordedEpisode(w, agent.NewLBC(agent.DefaultLBCConfig()), nil)
	if len(out.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	path := filepath.Join(t.TempDir(), "ep.jsonl")
	if err := SaveEpisodeTrace(path, out, scn.Dt); err != nil {
		t.Fatal(err)
	}
	header, steps, err := LoadEpisodeTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if header.Steps != out.Steps || len(steps) != len(out.Trace) {
		t.Errorf("round trip mismatch: %+v vs %d steps", header, len(out.Trace))
	}
}

func TestScenarioSuiteRoundTripViaFacade(t *testing.T) {
	scns := GenerateScenarios(RearEnd, 4, 9)
	path := filepath.Join(t.TempDir(), "suite.json")
	if err := SaveScenarioSuite(scns, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenarioSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 4 || loaded[2].Typology != RearEnd {
		t.Errorf("loaded = %+v", loaded)
	}
}
