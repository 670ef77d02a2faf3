package sti

import (
	"context"
	"math"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

func testRoad() *roadmap.StraightRoad {
	return roadmap.MustStraightRoad(2, 3.5, -50, 500)
}

func ego(x, y, speed float64) vehicle.State {
	return vehicle.State{Pos: geom.V(x, y), Speed: speed}
}

func eval(t *testing.T) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(reach.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// score is Score cold and untraced, read out as the Result alone.
func score(e *Evaluator, q Query) Result {
	res, _ := e.Score(context.Background(), q, nil)
	return res
}

func groundTruth(e *Evaluator, actors []*actor.Actor) []actor.Trajectory {
	return actor.PredictAll(actors, e.cfg.NumSlices(), e.cfg.SliceDt)
}

func TestNewEvaluatorRejectsInvalidConfig(t *testing.T) {
	cfg := reach.DefaultConfig()
	cfg.Horizon = -1
	if _, err := NewEvaluator(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMustNewEvaluatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewEvaluator should panic on invalid config")
		}
	}()
	cfg := reach.DefaultConfig()
	cfg.CellSize = 0
	MustNewEvaluator(cfg)
}

func TestEmptySceneZeroSTI(t *testing.T) {
	e := eval(t)
	res := score(e, Query{testRoad(), ego(0, 1.75, 10), nil, nil})
	if res.Combined != 0 {
		t.Errorf("combined STI with no actors = %v, want 0", res.Combined)
	}
	if len(res.PerActor) != 0 {
		t.Errorf("PerActor = %v", res.PerActor)
	}
	if res.BaseVolume != res.EmptyVolume {
		t.Errorf("base %v != empty %v with no actors", res.BaseVolume, res.EmptyVolume)
	}
}

func TestDistantActorZeroSTI(t *testing.T) {
	e := eval(t)
	// An actor far behind on the other lane, driving away: no influence on
	// escape routes within the 3 s horizon.
	far := actor.NewVehicle(1, vehicle.State{Pos: geom.V(-200, 5.25), Speed: 0})
	actors := []*actor.Actor{far}
	res := score(e, Query{testRoad(), ego(0, 1.75, 10), actors, groundTruth(e, actors)})
	if res.PerActor[0] != 0 {
		t.Errorf("distant actor STI = %v, want 0", res.PerActor[0])
	}
	if res.Combined != 0 {
		t.Errorf("combined = %v, want 0", res.Combined)
	}
}

func TestBlockingActorPositiveSTI(t *testing.T) {
	e := eval(t)
	// A stopped vehicle 12 m ahead in the ego lane removes escape routes.
	lead := actor.NewVehicle(1, vehicle.State{Pos: geom.V(12, 1.75), Speed: 0})
	actors := []*actor.Actor{lead}
	res := score(e, Query{testRoad(), ego(0, 1.75, 10), actors, groundTruth(e, actors)})
	if res.PerActor[0] <= 0 {
		t.Errorf("blocking actor STI = %v, want > 0", res.PerActor[0])
	}
	if res.Combined <= 0 {
		t.Errorf("combined = %v, want > 0", res.Combined)
	}
	if res.Combined < res.PerActor[0]-1e-9 {
		t.Errorf("combined %v should be >= per-actor %v for a single actor", res.Combined, res.PerActor[0])
	}
}

func TestSingleActorCombinedEqualsPerActor(t *testing.T) {
	e := eval(t)
	lead := actor.NewVehicle(1, vehicle.State{Pos: geom.V(15, 1.75), Speed: 2})
	actors := []*actor.Actor{lead}
	res := score(e, Query{testRoad(), ego(0, 1.75, 10), actors, groundTruth(e, actors)})
	// With exactly one actor, T^{/0} == T^∅ up to the bounded quantisation
	// error of the cached empty-world volume (see cache.go), so STI_0 must
	// closely track the combined value.
	if diff := math.Abs(res.PerActor[0] - res.Combined); diff > 0.05 {
		t.Errorf("single-actor STI %v != combined %v (diff %v)", res.PerActor[0], res.Combined, diff)
	}
}

func TestSTIBoundedZeroOne(t *testing.T) {
	e := eval(t)
	// Surround the ego closely on all sides.
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(7, 1.75)}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(-7, 1.75), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(0, 5.25)}),
		actor.NewVehicle(4, vehicle.State{Pos: geom.V(7, 5.25)}),
	}
	res := score(e, Query{testRoad(), ego(0, 1.75, 8), actors, groundTruth(e, actors)})
	if res.Combined < 0 || res.Combined > 1 {
		t.Errorf("combined out of range: %v", res.Combined)
	}
	for i, v := range res.PerActor {
		if v < 0 || v > 1 {
			t.Errorf("actor %d STI out of range: %v", i, v)
		}
	}
}

func TestFullyTrappedCombinedNearOne(t *testing.T) {
	e := eval(t)
	// Ego boxed in at speed: lead stopped just ahead, walls of traffic on the
	// adjacent lane and behind — escape routes vanish.
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(6, 1.75)}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(6, 5.25)}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(0, 5.25)}),
		actor.NewVehicle(4, vehicle.State{Pos: geom.V(12, 1.75)}),
		actor.NewVehicle(5, vehicle.State{Pos: geom.V(12, 5.25)}),
	}
	res := score(e, Query{testRoad(), ego(0, 1.75, 15), actors, groundTruth(e, actors)})
	if res.Combined < 0.8 {
		t.Errorf("boxed-in combined STI = %v, want >= 0.8", res.Combined)
	}
}

func TestOutOfPathActorHasSTI(t *testing.T) {
	// The paper's key claim vs TTC/CIPA: an actor that never intersects the
	// ego's path still removes escape routes (Fig. 7(b)). A vehicle driving
	// alongside in the adjacent lane blocks the lane-change escape.
	e := eval(t)
	alongside := actor.NewVehicle(1, vehicle.State{Pos: geom.V(2, 5.25), Speed: 10})
	actors := []*actor.Actor{alongside}
	res := score(e, Query{testRoad(), ego(0, 1.75, 10), actors, groundTruth(e, actors)})
	if res.PerActor[0] <= 0 {
		t.Errorf("out-of-path alongside actor STI = %v, want > 0", res.PerActor[0])
	}
}

func TestCloserActorMoreThreatening(t *testing.T) {
	e := eval(t)
	egoS := ego(0, 1.75, 10)
	near := []*actor.Actor{actor.NewVehicle(1, vehicle.State{Pos: geom.V(10, 1.75)})}
	farther := []*actor.Actor{actor.NewVehicle(1, vehicle.State{Pos: geom.V(30, 1.75)})}
	rNear := score(e, Query{testRoad(), egoS, near, groundTruth(e, near)})
	rFar := score(e, Query{testRoad(), egoS, farther, groundTruth(e, farther)})
	if rNear.PerActor[0] <= rFar.PerActor[0] {
		t.Errorf("near actor STI %v should exceed far actor STI %v",
			rNear.PerActor[0], rFar.PerActor[0])
	}
}

func TestEvaluateCombinedMatchesEvaluate(t *testing.T) {
	e := eval(t)
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
	}
	trajs := groundTruth(e, actors)
	full := score(e, Query{testRoad(), ego(0, 1.75, 10), actors, trajs})
	fast := e.Combined(Query{testRoad(), ego(0, 1.75, 10), actors, trajs})
	if full.Combined != fast {
		t.Errorf("Combined %v != Score().Combined %v", fast, full.Combined)
	}
}

func TestEvaluateWithPredictionMatchesManualCVTR(t *testing.T) {
	e := eval(t)
	actors := []*actor.Actor{actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3})}
	manual := score(e, Query{testRoad(), ego(0, 1.75, 10), actors, groundTruth(e, actors)})
	auto := score(e, Query{Map: testRoad(), Ego: ego(0, 1.75, 10), Actors: actors})
	if manual.Combined != auto.Combined || manual.PerActor[0] != auto.PerActor[0] {
		t.Errorf("nil Trajs mismatch: %+v vs %+v", manual, auto)
	}
	c := e.Combined(Query{Map: testRoad(), Ego: ego(0, 1.75, 10), Actors: actors})
	if c != manual.Combined {
		t.Errorf("CombinedWithPrediction = %v, want %v", c, manual.Combined)
	}
}

func TestOffRoadEgoZeroSTI(t *testing.T) {
	e := eval(t)
	actors := []*actor.Actor{actor.NewVehicle(1, vehicle.State{Pos: geom.V(10, 1.75)})}
	res := score(e, Query{testRoad(), ego(0, 50, 10), actors, groundTruth(e, actors)})
	if res.Combined != 0 || res.PerActor[0] != 0 {
		t.Errorf("off-road ego should yield zero STI: %+v", res)
	}
	if res.EmptyVolume != 0 {
		t.Errorf("EmptyVolume = %v, want 0", res.EmptyVolume)
	}
}

func TestMostThreatening(t *testing.T) {
	r := Result{PerActor: []float64{0.1, 0.7, 0.3}}
	i, v := r.MostThreatening()
	if i != 1 || v != 0.7 {
		t.Errorf("MostThreatening = (%d, %v)", i, v)
	}
	i, v = Result{}.MostThreatening()
	if i != -1 || v != 0 {
		t.Errorf("empty MostThreatening = (%d, %v)", i, v)
	}
}

func TestClamp01(t *testing.T) {
	for _, tt := range []struct{ give, want float64 }{
		{-0.5, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.5, 1},
	} {
		if got := clamp01(tt.give); got != tt.want {
			t.Errorf("clamp01(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestConfigAccessor(t *testing.T) {
	e := eval(t)
	if e.Config().Horizon != reach.DefaultConfig().Horizon {
		t.Error("Config() should round-trip the construction config")
	}
}
