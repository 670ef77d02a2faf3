package iprism

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/agent"
	"repro/internal/reach"
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

// ComputeTube is Algorithm 1 over the actors' CVTR predictions: bitwise
// reach.Compute over obstacles built from actor.PredictAll.
func TestComputeTubeMatchesCompute(t *testing.T) {
	road, _ := NewStraightRoad(3, 3.5, -50, 300)
	ego := VehicleState{Pos: V(0, 5.25), Speed: 12}
	actors := []*Actor{
		NewVehicleActor(1, VehicleState{Pos: V(18, 5.25), Speed: 3}),
		NewVehicleActor(2, VehicleState{Pos: V(6, 1.75), Speed: 14, Heading: 0.1}),
		NewVehicleActor(3, VehicleState{Pos: V(-12, 8.75), Speed: 16}),
	}
	cfg := DefaultReachConfig()
	cfg.RecordPoints = true
	trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
	want := reach.Compute(road, reach.BuildObstacles(actors, trajs, cfg), ego, cfg, nil)
	got := ComputeTube(road, ego, actors, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ComputeTube = %+v, want %+v", got, want)
	}
	if !want.Blocked || want.Volume <= 0 {
		t.Fatalf("scene exercises no actor: %+v", want)
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
