package iprism

import (
	"context"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	road, err := NewStraightRoad(2, 3.5, -100, 500)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(DefaultReachConfig())
	ego := VehicleState{Pos: V(0, 1.75), Speed: 10}
	lead := NewVehicleActor(1, VehicleState{Pos: V(14, 1.75), Speed: 2})
	res, _ := eval.Score(context.Background(), Query{Map: road, Ego: ego, Actors: []*Actor{lead}}, nil)
	if res.Combined <= 0 {
		t.Errorf("combined STI = %v, want > 0", res.Combined)
	}
	if len(res.PerActor) != 1 || res.PerActor[0] <= 0 {
		t.Errorf("per-actor STI = %v", res.PerActor)
	}
}

func TestFacadeScenarioGeneration(t *testing.T) {
	scns := GenerateScenarios(GhostCutIn, 5, 1)
	if len(scns) != 5 {
		t.Fatalf("scenarios = %d", len(scns))
	}
	w, err := scns[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.Ego == nil {
		t.Fatal("no ego in built world")
	}
}

func TestFacadePrediction(t *testing.T) {
	a := NewVehicleActor(1, VehicleState{Speed: 10})
	tr := PredictCVTR(a, 6, 0.5)
	if tr.Len() != 7 {
		t.Errorf("trajectory length = %d", tr.Len())
	}
	p := NewPedestrianActor(2, VehicleState{Speed: 1.4})
	if p.Width != 0.6 {
		t.Errorf("pedestrian width = %v", p.Width)
	}
}

func TestFacadeMetrics(t *testing.T) {
	road, _ := NewStraightRoad(2, 3.5, -100, 500)
	lead := NewVehicleActor(1, VehicleState{Pos: V(30, 1.75), Speed: 5})
	s := MetricScene{
		Map:       road,
		Ego:       VehicleState{Pos: V(0, 1.75), Speed: 10},
		EgoParams: DefaultVehicleParams(),
		Actors:    []*Actor{lead},
		Trajs:     []Trajectory{PredictCVTR(lead, 30, 0.1)},
		Horizon:   3,
		Dt:        0.1,
	}
	if ttc := TTC(s); ttc <= 0 || ttc > 10 {
		t.Errorf("TTC = %v", ttc)
	}
	if d := DistCIPA(s); d <= 0 || d > 30 {
		t.Errorf("DistCIPA = %v", d)
	}
}
