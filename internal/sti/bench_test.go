package sti

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/scene"
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
		e.Combined(Query{Map: m, Ego: egoS, Actors: actors})
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
		score(e, Query{Map: m, Ego: egoS, Actors: actors})
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
		score(e, Query{m, egoS, actors, trajs})
	}
}

// BenchmarkEvaluateSession replays recorded session traces tick by tick
// through one evaluator, measuring the per-tick cost of session scoring.
// Warm keeps one WarmState across the replay (ticks after the first
// revalidate the previous expansion); cold passes a nil state and
// recomputes every tick. The traces span the warm engine's regimes: the
// stop-and-go queue holds the ego bitwise-static and moves a few actors in
// pulses, the ring platoon moves every actor every tick, and the 64-actor
// UrbanCrush crawl runs on segmented masks. Warm rows also report warm-B,
// the heap one WarmState retains after a full replay. The first-* rows
// score only the trace's first tick, the one that fills the memo: cold,
// warm on a fresh WarmState each iteration, and warm on one state Reset
// before each iteration after a full replay (how the server recycles a
// closed session's state). Compare:
//
//	go test -bench 'EvaluateSession' -run - ./internal/sti
func BenchmarkEvaluateSession(b *testing.B) {
	for _, tc := range []struct {
		name  string
		trace func() (roadmap.Map, []scenario.SessionTick)
	}{
		{"stopgo12", func() (roadmap.Map, []scenario.SessionTick) { return scenario.StopAndGoSession(12, 40) }},
		{"ring8", func() (roadmap.Map, []scenario.SessionTick) { return scenario.RingSession(8, 40) }},
		{"crush64", func() (roadmap.Map, []scenario.SessionTick) { return scenario.UrbanCrushSession(64, 40) }},
	} {
		e := MustNewEvaluator(reach.DefaultConfig())
		m, trace := tc.trace()
		trajs := make([][]actor.Trajectory, len(trace))
		for t, tick := range trace {
			trajs[t] = actor.PredictAll(tick.Actors, e.cfg.NumSlices(), e.cfg.SliceDt)
		}
		for _, warm := range []bool{false, true} {
			mode := "cold"
			if warm {
				mode = "warm"
			}
			b.Run(tc.name+"/"+mode, func(b *testing.B) {
				var ws *WarmState
				held := 0.0
				if warm {
					held = retainedBytes(e, m, trace, trajs)
					ws = NewWarmState()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t := i % len(trace)
					e.Score(context.Background(), Query{m, trace[t].Ego, trace[t].Actors, trajs[t]}, ws)
				}
				if warm {
					// After the loop: ResetTimer drops reported metrics.
					b.ReportMetric(held, "warm-B")
				}
			})
		}
		first := trace[0]
		b.Run(tc.name+"/first-cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Score(context.Background(), Query{m, first.Ego, first.Actors, trajs[0]}, nil)
			}
		})
		b.Run(tc.name+"/first-fresh", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Score(context.Background(), Query{m, first.Ego, first.Actors, trajs[0]}, NewWarmState())
			}
		})
		b.Run(tc.name+"/first-reset", func(b *testing.B) {
			ws := NewWarmState()
			for t, tick := range trace {
				e.Score(context.Background(), Query{m, tick.Ego, tick.Actors, trajs[t]}, ws)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Reset()
				e.Score(context.Background(), Query{m, first.Ego, first.Actors, trajs[0]}, ws)
			}
		})
	}
}

// BenchmarkEvaluateCorpus scores perfbench's corpus_batch mix in process,
// cold, one scene per op: scenario.Fixtures of the five NHTSA typologies,
// 300 each, plus UrbanCrush(64) and UrbanCrush(128) alternating at about
// one scene in 16, shuffled with seed 1. CVTR prediction runs before the
// timer. Every expansion uses one Scratch, whose exact work counts give
// parents/op (frontier states whose control fan was integrated) and
// profiles/op (per-speed fan profiles computed for them). A whole number
// of corpus passes makes both exact:
//
//	go test -run '^$' -bench EvaluateCorpus -benchtime 3200x -cpu 1 ./internal/sti
func BenchmarkEvaluateCorpus(b *testing.B) {
	const seed = 1
	var scenes []scene.Scene
	for ty := scenario.GhostCutIn; ty <= scenario.RearEnd; ty++ {
		fx, err := scenario.Fixtures(ty, 300, seed+int64(ty))
		if err != nil {
			b.Fatal(err)
		}
		scenes = append(scenes, fx...)
	}
	for i, crowd := 0, len(scenes)/15; i < crowd; i++ {
		m, egoS, actors := scenario.UrbanCrush(64 << (i % 2))
		sc, err := scene.FromParts(m, egoS, actors, 0)
		if err != nil {
			b.Fatal(err)
		}
		scenes = append(scenes, sc)
	}
	e := MustNewEvaluator(reach.DefaultConfig())
	var qs []Query
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(scenes)) {
		m, egoS, actors, trajs, hasTrajs, err := scenes[i].Materialize()
		if err != nil {
			b.Fatal(err)
		}
		if !hasTrajs {
			trajs = actor.PredictAll(actors, e.cfg.NumSlices(), e.cfg.SliceDt)
		}
		qs = append(qs, Query{m, egoS, actors, trajs})
	}
	b.Run("cold", func(b *testing.B) {
		scr := reach.NewScratch()
		e := MustNewEvaluator(reach.DefaultConfig())
		e.scratch.New = func() any { return scr } // every Score gets scr
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Score(context.Background(), qs[i%len(qs)], nil)
		}
		w := scr.Work()
		b.ReportMetric(float64(w.Parents)/float64(b.N), "parents/op")
		b.ReportMetric(float64(w.Profiles)/float64(b.N), "profiles/op")
	})
}

// retainedBytes replays trace once on a fresh WarmState and returns the
// live heap that state holds afterwards: the heap in use while it is
// reachable minus the heap once it is dropped.
func retainedBytes(e *Evaluator, m roadmap.Map, trace []scenario.SessionTick, trajs [][]actor.Trajectory) float64 {
	ws := NewWarmState()
	for t, tick := range trace {
		e.Score(context.Background(), Query{m, tick.Ego, tick.Actors, trajs[t]}, ws)
	}
	held := liveHeap()
	runtime.KeepAlive(ws)
	return float64(held - liveHeap())
}

// liveHeap returns the bytes of reachable heap objects. Two collections
// empty the evaluator's scratch sync.Pool (its victim cache survives one),
// so pooled scratch memory counts on neither side of a difference.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
