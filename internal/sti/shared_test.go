package sti

import (
	"math/rand"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// dense12Scene is the dense workload of the shared-expansion engine: a
// fast ego on a three-lane road rolling up on two ranks of slow traffic
// (one per lane each), fast vehicles closing from behind and a far rank at
// the horizon's edge. The base tube is large and half the actors clip it at
// the periphery, so the legacy path re-expands a nearly full-size tube for
// each of ~6 blockers while the shared expansion covers the union once.
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

func sharedAndLegacy(t testing.TB, workers int) (legacy, shared *Evaluator) {
	cfg := reach.DefaultConfig()
	legacy, err := NewEvaluatorOptions(cfg, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	shared, err = NewEvaluatorOptions(cfg, Options{Workers: workers, SharedExpansion: true})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.SharedExpansion() || !shared.SharedExpansion() {
		t.Fatal("SharedExpansion option not reflected by evaluators")
	}
	return legacy, shared
}

// The differential contract of the tentpole: with SharedExpansion on,
// Evaluate is bitwise-identical to the legacy path — every Result field,
// after snap and dead-band handling — on the full scene mix used by the
// parallel determinism suite, at both worker counts.
func TestSharedExpansionMatchesLegacyScenes(t *testing.T) {
	for _, workers := range []int{1, 8} {
		legacy, shared := sharedAndLegacy(t, workers)
		for si, obs := range parallelScenes(t) {
			trajs := actor.PredictAll(obs.Actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
			want := legacy.Evaluate(obs.Map, obs.Ego, obs.Actors, trajs)
			got := shared.Evaluate(obs.Map, obs.Ego, obs.Actors, trajs)
			requireIdentical(t, si, want, got)
		}
	}
}

// The dense 12-actor workload — the scene class the shared engine exists
// for — must also be exact, and most actors must really block (otherwise
// the scene would not exercise the engine).
func TestSharedExpansionDense12(t *testing.T) {
	legacy, shared := sharedAndLegacy(t, 4)
	m, e, actors := dense12Scene()
	trajs := actor.PredictAll(actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
	want := legacy.Evaluate(m, e, actors, trajs)
	got := shared.Evaluate(m, e, actors, trajs)
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

// Randomized property sweep: shared and legacy agree bitwise across small
// scene sizes (one-word masks), with a mix of blocked and free
// roads.
func TestSharedExpansionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	legacy, shared := sharedAndLegacy(t, 4)
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
		got := shared.Evaluate(road, e, actors, trajs)
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
	legacy, shared := sharedAndLegacy(t, 4)
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
		got, prov := shared.evaluate(nil, road, e, actors, trajs)
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

// One evaluator under SharedExpansion shared by concurrent callers must
// stay deterministic (scratch pooling, empty-volume cache, fan-out).
func TestSharedExpansionConcurrentUse(t *testing.T) {
	legacy, shared := sharedAndLegacy(t, 4)
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
				got := shared.Evaluate(obs.Map, obs.Ego, obs.Actors, trajs[i])
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

// FuzzSharedVsLegacy drives randomized scenes through both evaluator paths
// and requires bitwise-equal Results. The corpus seeds mirror the suite's
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
	legacy, err := NewEvaluatorOptions(reach.DefaultConfig(), Options{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	shared, err := NewEvaluatorOptions(reach.DefaultConfig(), Options{Workers: 2, SharedExpansion: true})
	if err != nil {
		f.Fatal(err)
	}
	road := testRoad()
	f.Fuzz(func(t *testing.T, seed int64, n uint8, egoY, egoSpeed float64) {
		e, actors := fuzzScene(seed, n, egoY, egoSpeed)
		trajs := actor.PredictAll(actors, legacy.cfg.NumSlices(), legacy.cfg.SliceDt)
		want := legacy.Evaluate(road, e, actors, trajs)
		got := shared.Evaluate(road, e, actors, trajs)
		requireIdentical(t, int(seed), want, got)
	})
}
