package sti

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/scenario"
	"repro/internal/vehicle"
)

// BenchmarkEvaluateCombined measures the SMC-loop fast path (§V-E reports
// 0.61 s for the authors' Python implementation of the full evaluation).
func BenchmarkEvaluateCombined(b *testing.B) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m := testRoad()
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(-15, 1.75), Speed: 15}),
	}
	egoS := ego(0, 1.75, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CombinedWithPrediction(m, egoS, actors)
	}
}

// BenchmarkEvaluateFull measures the full per-actor counterfactual
// evaluation (N+2 reach-tube computations).
func BenchmarkEvaluateFull(b *testing.B) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m := testRoad()
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(-15, 1.75), Speed: 15}),
	}
	egoS := ego(0, 1.75, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluateWithPrediction(m, egoS, actors)
	}
}

// The dense 12-actor scene — the workload class the shared-expansion
// engine targets — scored by the evaluator and, for scale, by the serial
// per-actor oracle it replaces. Compare:
//
//	go test -bench 'EvaluateDense12' -run - ./internal/sti
func BenchmarkEvaluateDense12Legacy(b *testing.B) {
	o := newLegacyOracle(b)
	m, egoS, actors := dense12Scene()
	trajs := actor.PredictAll(actors, o.cfg.NumSlices(), o.cfg.SliceDt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Evaluate(m, egoS, actors, trajs)
	}
}

func BenchmarkEvaluateDense12Shared(b *testing.B) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m, egoS, actors := dense12Scene()
	trajs := actor.PredictAll(actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(m, egoS, actors, trajs)
	}
}

// benchmarkSession12 replays the canonical 12-actor stop-and-go session
// trace through one evaluator, measuring the per-tick cost of session
// scoring. Warm keeps one WarmState across the whole replay (ticks after
// the first revalidate the previous expansion); cold recomputes every tick.
// Compare:
//
//	go test -bench 'EvaluateSession12' -run - ./internal/sti
func benchmarkSession12(b *testing.B, warm bool) {
	e, err := NewEvaluatorOptions(reach.DefaultConfig(), Options{WarmStart: warm})
	if err != nil {
		b.Fatal(err)
	}
	m, trace := scenario.StopAndGoSession(12, 40)
	var ws *WarmState
	if warm {
		ws = NewWarmState()
	}
	trajs := make([][]actor.Trajectory, len(trace))
	for t, tick := range trace {
		trajs[t] = actor.PredictAll(tick.Actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick := trace[i%len(trace)]
		e.EvaluateWarm(m, tick.Ego, tick.Actors, trajs[i%len(trace)], ws)
	}
}

func BenchmarkEvaluateSession12Cold(b *testing.B) { benchmarkSession12(b, false) }
func BenchmarkEvaluateSession12Warm(b *testing.B) { benchmarkSession12(b, true) }
