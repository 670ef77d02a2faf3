package sti

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/scene"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// dense12Scene is the dense workload of the shared-expansion engine: a
// fast ego on a three-lane road rolling up on two ranks of slow traffic
// (one per lane each), fast vehicles closing from behind and a far rank at
// the horizon's edge. The base tube is large and half the actors clip it at
// the periphery, so the per-actor oracle re-expands a nearly full-size tube
// for each of ~6 blockers while the shared expansion covers the union once.
// Benchmarks and cmd/iprism-bench's sti_evaluate_dense12 workload mirror it.
func dense12Scene() (roadmap.Map, vehicle.State, []*actor.Actor) {
	m := roadmap.MustStraightRoad(3, 3.5, -100, 1000)
	e := ego(0, 5.25, 12)
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(30, 1.75), Speed: 6}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(36, 5.25), Speed: 6}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(33, 8.75), Speed: 6}),
		actor.NewVehicle(4, vehicle.State{Pos: geom.V(40, 1.75), Speed: 6}),
		actor.NewVehicle(5, vehicle.State{Pos: geom.V(46, 5.25), Speed: 6}),
		actor.NewVehicle(6, vehicle.State{Pos: geom.V(43, 8.75), Speed: 6}),
		actor.NewVehicle(7, vehicle.State{Pos: geom.V(-14, 5.25), Speed: 15}),
		actor.NewVehicle(8, vehicle.State{Pos: geom.V(-18, 1.75), Speed: 16}),
		actor.NewVehicle(9, vehicle.State{Pos: geom.V(-16, 8.75), Speed: 17}),
		actor.NewVehicle(10, vehicle.State{Pos: geom.V(55, 5.25), Speed: 5}),
		actor.NewVehicle(11, vehicle.State{Pos: geom.V(52, 1.75), Speed: 5}),
		actor.NewVehicle(12, vehicle.State{Pos: geom.V(53, 8.75), Speed: 5}),
	}
	return m, e, actors
}

func sharedAndLegacy(t testing.TB) (legacy *legacyOracle, shared *Evaluator) {
	t.Helper()
	shared, err := NewEvaluator(reach.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return newLegacyOracle(t), shared
}

// benchmarkScenes returns the input classes the repository benchmark
// scores, each decoded and materialised from its wire bytes exactly as the
// server does: scenario.Fixtures snapshots of every typology at three
// seeds, plus (outside -short) the 64- and 128-actor UrbanCrush crowds.
func benchmarkScenes(t *testing.T) []sim.Observation {
	t.Helper()
	var scenes []scene.Scene
	for _, ty := range append(append([]scenario.Typology{}, scenario.Typologies...), scenario.RoundaboutCutIn) {
		for seed := int64(1); seed <= 3; seed++ {
			fx, err := scenario.Fixtures(ty, 10, seed)
			if err != nil {
				t.Fatalf("fixtures %v seed %d: %v", ty, seed, err)
			}
			scenes = append(scenes, fx...)
		}
	}
	if !testing.Short() {
		for _, n := range []int{64, 128} {
			m, e, actors := scenario.UrbanCrush(n)
			sc, err := scene.FromParts(m, e, actors, 0)
			if err != nil {
				t.Fatal(err)
			}
			scenes = append(scenes, sc)
		}
	}
	obs := make([]sim.Observation, len(scenes))
	for i, sc := range scenes {
		b, err := scene.Encode(sc)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := scene.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		m, e, actors, _, _, err := dec.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		obs[i] = sim.Observation{Map: m, Ego: e, Actors: actors}
	}
	return obs
}

// The differential contract: Evaluate on the shared-expansion engine is
// bitwise-identical to the per-actor oracle — every Result field, after
// snap and dead-band handling — on the scene mix of the concurrency suite
// and on the input classes the repository benchmark scores.
func TestSharedExpansionMatchesLegacyScenes(t *testing.T) {
	legacy, shared := sharedAndLegacy(t)
	for si, obs := range append(parallelScenes(t), benchmarkScenes(t)...) {
		trajs := actor.PredictAll(obs.Actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
		want := legacy.Evaluate(obs.Map, obs.Ego, obs.Actors, trajs)
		got := score(shared, Query{obs.Map, obs.Ego, obs.Actors, trajs})
		requireIdentical(t, si, want, got)
	}
}

// The dense 12-actor workload — the scene class the shared engine exists
// for — must also be exact, and most actors must really block (otherwise
// the scene would not exercise the engine).
func TestSharedExpansionDense12(t *testing.T) {
	legacy, shared := sharedAndLegacy(t)
	m, e, actors := dense12Scene()
	trajs := actor.PredictAll(actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
	want := legacy.Evaluate(m, e, actors, trajs)
	got := score(shared, Query{m, e, actors, trajs})
	requireIdentical(t, -12, want, got)
	if want.Combined == 0 {
		t.Fatal("dense12 scene has zero combined STI; workload does not exercise counterfactuals")
	}
	blockers := 0
	for i := range want.WithoutVolume {
		if want.WithoutVolume[i] != want.BaseVolume {
			blockers++
		}
	}
	if blockers < 4 {
		t.Fatalf("dense12 scene has only %d blocking actors; want >= 4", blockers)
	}
}

// Randomized property sweep: shared and oracle agree bitwise across small
// scene sizes (one-word masks), with a mix of blocked and free
// roads.
func TestSharedExpansionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	legacy, shared := sharedAndLegacy(t)
	road := testRoad()
	for iter := 0; iter < 25; iter++ {
		n := rng.Intn(10)
		actors := make([]*actor.Actor, n)
		for i := range actors {
			actors[i] = actor.NewVehicle(i+1, vehicle.State{
				Pos:     geom.V(-20+rng.Float64()*70, 0.8+rng.Float64()*5.4),
				Speed:   rng.Float64() * 15,
				Heading: (rng.Float64() - 0.5) * 0.4,
			})
		}
		e := ego(0, 1.0+rng.Float64()*5, rng.Float64()*20)
		trajs := actor.PredictAll(actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
		want := legacy.Evaluate(road, e, actors, trajs)
		got := score(shared, Query{road, e, actors, trajs})
		requireIdentical(t, iter, want, got)
	}
}

// Segmented scenes: 64+-actor evaluations must be scored entirely by the
// one shared expansion — a mask as wide as the scene — and stay
// bitwise-identical to the legacy oracle. This is the acceptance criterion
// of the segmented-mask change plus the regression test for the old
// spillover bug where never-blocking excess actors got a raw (unsnapped)
// PerActor value: every per-actor STI must now come out of the same
// snap(clamp01(·)) pipeline, so values in (0, deadBand) are impossible.
func TestSharedExpansionSegmented(t *testing.T) {
	if testing.Short() {
		t.Skip("64-130-actor differential scenes")
	}
	rng := rand.New(rand.NewSource(5))
	legacy, shared := sharedAndLegacy(t)
	road := testRoad()
	for _, n := range []int{64, 70, 130} {
		span := 60 + 3*float64(n)
		actors := make([]*actor.Actor, n)
		for i := range actors {
			actors[i] = actor.NewVehicle(i+1, vehicle.State{
				Pos:     geom.V(-20+rng.Float64()*span, 0.8+rng.Float64()*5.4),
				Speed:   rng.Float64() * 15,
				Heading: (rng.Float64() - 0.5) * 0.4,
			})
		}
		e := ego(0, 1.75, 10)
		trajs := actor.PredictAll(actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
		want := legacy.Evaluate(road, e, actors, trajs)
		got, prov := shared.Score(context.Background(), Query{road, e, actors, trajs}, nil)
		requireIdentical(t, n, want, got)
		if prov.MaskWidth != n {
			t.Errorf("n=%d: mask width %d, want every actor represented", n, prov.MaskWidth)
		}
		if words := (1 + n + 63) / 64; prov.MaskWords != words {
			t.Errorf("n=%d: mask words %d, want %d", n, prov.MaskWords, words)
		}
		for i, v := range got.PerActor {
			if v != 0 && v < deadBand {
				t.Errorf("n=%d actor %d: PerActor %v inside the dead band — escaped the snap pipeline", n, i, v)
			}
		}
	}
}

// One evaluator shared by concurrent callers must stay deterministic
// (scratch pooling, empty-volume cache) and match the oracle.
func TestSharedExpansionConcurrentUse(t *testing.T) {
	legacy, shared := sharedAndLegacy(t)
	scenes := parallelScenes(t)
	trajs := make([][]actor.Trajectory, len(scenes))
	want := make([]Result, len(scenes))
	for i, obs := range scenes {
		trajs[i] = actor.PredictAll(obs.Actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
		want[i] = legacy.Evaluate(obs.Map, obs.Ego, obs.Actors, trajs[i])
	}
	done := make(chan struct{})
	for c := 0; c < 4; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i, obs := range scenes {
				got := score(shared, Query{obs.Map, obs.Ego, obs.Actors, trajs[i]})
				requireIdentical(t, i, want[i], got)
			}
		}()
	}
	for c := 0; c < 4; c++ {
		<-done
	}
	close(done)
}

// fuzzScene decodes the fuzz inputs into a deterministic scene: seed drives
// actor placement, n the actor count (0..130, so values past 64 exercise
// word 1+ of the segmented masks), egoLane/egoSpeed the ego. The scatter
// span grows with the actor count so crowd-scale scenes stay plausible
// traffic rather than one impenetrable wall.
func fuzzScene(seed int64, n uint8, egoY, egoSpeed float64) (vehicle.State, []*actor.Actor) {
	if egoY < 0.8 || egoY > 6.2 || egoY != egoY {
		egoY = 1.75
	}
	if egoSpeed < 0 || egoSpeed > 25 || egoSpeed != egoSpeed {
		egoSpeed = 10
	}
	rng := rand.New(rand.NewSource(seed))
	count := int(n) % 131
	span := 70 + 3*float64(count)
	actors := make([]*actor.Actor, count)
	for i := range actors {
		actors[i] = actor.NewVehicle(i+1, vehicle.State{
			Pos:     geom.V(-20+rng.Float64()*span, 0.8+rng.Float64()*5.4),
			Speed:   rng.Float64() * 15,
			Heading: (rng.Float64() - 0.5) * 0.4,
		})
	}
	return ego(0, egoY, egoSpeed), actors
}

// FuzzSharedVsLegacy drives randomized scenes through the evaluator and the
// per-actor oracle and requires bitwise-equal Results. The corpus seeds mirror the suite's
// hand-picked regressions: a ghost-cut-in-like close leading blocker, the
// dense straight-road scene's shape, a ring-of-actors configuration, and
// crowd-scale scenes whose world masks need two and three words.
func FuzzSharedVsLegacy(f *testing.F) {
	f.Add(int64(101), uint8(1), 1.75, 10.0)  // ghost cut-in shape: one close blocker
	f.Add(int64(202), uint8(6), 1.75, 10.0)  // dense straight-road shape
	f.Add(int64(303), uint8(12), 3.5, 15.0)  // ring of actors around a mid-road ego
	f.Add(int64(404), uint8(0), 5.25, 0.0)   // empty scene, stationary ego
	f.Add(int64(505), uint8(64), 1.75, 12.0) // first scene past the old 63-actor cap
	f.Add(int64(606), uint8(70), 3.5, 10.0)  // word-1 masks (71 worlds)
	f.Add(int64(707), uint8(130), 1.75, 8.0) // word-2 masks (131 worlds)
	legacy, shared := sharedAndLegacy(f)
	road := testRoad()
	f.Fuzz(func(t *testing.T, seed int64, n uint8, egoY, egoSpeed float64) {
		e, actors := fuzzScene(seed, n, egoY, egoSpeed)
		trajs := actor.PredictAll(actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
		want := legacy.Evaluate(road, e, actors, trajs)
		got := score(shared, Query{road, e, actors, trajs})
		requireIdentical(t, int(seed), want, got)
	})
}
