package reach

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/vehicle"
)

// randomScene builds a scene with n actors scattered around the test road,
// biased towards the ego's lane so a good fraction actually block paths.
// The scatter span grows with n so crowd-scale scenes (64+) stay plausible
// traffic rather than a single impenetrable wall at the origin.
func randomScene(rng *rand.Rand, n int) (vehicle.State, []*actor.Actor) {
	ego := vehicle.State{
		Pos:   geom.V(0, 1.0+rng.Float64()*5),
		Speed: rng.Float64() * 20,
	}
	span := 60 + 3*float64(n)
	actors := make([]*actor.Actor, n)
	for i := range actors {
		actors[i] = actor.NewVehicle(i+1, vehicle.State{
			Pos:     geom.V(-20+rng.Float64()*span, 0.8+rng.Float64()*5.4),
			Speed:   rng.Float64() * 15,
			Heading: (rng.Float64() - 0.5) * 0.4,
		})
	}
	return ego, actors
}

// requireSharedMatchesLegacy checks every volume ComputeCounterfactuals
// reports against the legacy per-world tubes, bit for bit, plus the result
// metadata: every actor is represented and the mask width matches the
// world count.
func requireSharedMatchesLegacy(t *testing.T, tag string, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, cfg Config) {
	t.Helper()
	trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
	obs := BuildObstacles(actors, trajs, cfg)
	sh, _ := ComputeCounterfactuals(m, obs, ego, cfg, nil, nil)
	requireTubesMatchLegacy(t, tag, m, obs, ego, cfg, sh)
}

// requireTubesMatchLegacy checks sh, a counterfactual expansion over obs,
// against the legacy oracle: one per-world reference tube with Collide
// (the base world) and with CollideWithout(i) (each world /i).
func requireTubesMatchLegacy(t *testing.T, tag string, m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, sh SharedTubes) {
	t.Helper()
	n := obs.NumActors()
	if sh.Represented != n {
		t.Errorf("%s: represented %d, want every actor (%d)", tag, sh.Represented, n)
	}
	if want := (1 + n + 63) / 64; sh.MaskWords != want {
		t.Errorf("%s: mask words %d, want %d", tag, sh.MaskWords, want)
	}
	base, _ := referenceTube(m, obs.Collide(), ego, cfg)
	if sh.BaseVolume != base.Volume {
		t.Errorf("%s: base volume %v, legacy %v", tag, sh.BaseVolume, base.Volume)
	}
	for i := 0; i < n; i++ {
		wo, _ := referenceTube(m, obs.CollideWithout(i), ego, cfg)
		if sh.WithoutVolume[i] != wo.Volume {
			t.Errorf("%s: world /%d volume %v, legacy %v", tag, i, sh.WithoutVolume[i], wo.Volume)
		}
	}
}

// The core differential property: on random scenes every per-world volume
// from the single shared expansion equals the corresponding legacy tube
// exactly — not within tolerance.
func TestSharedMatchesLegacyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultConfig()
	road := testRoad()
	for iter := 0; iter < 30; iter++ {
		ego, actors := randomScene(rng, 1+rng.Intn(8))
		requireSharedMatchesLegacy(t, "random", road, ego, actors, cfg)
	}
}

// Tiny MaxStates forces the per-slice cap to bite at different points in
// different worlds — the hardest part of the replay argument (DESIGN.md §8).
func TestSharedMatchesLegacyUnderCap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	road := testRoad()
	for _, maxStates := range []int{1, 2, 3, 8, 40} {
		cfg := DefaultConfig()
		cfg.MaxStates = maxStates
		for iter := 0; iter < 12; iter++ {
			ego, actors := randomScene(rng, 2+rng.Intn(5))
			requireSharedMatchesLegacy(t, "cap", road, ego, actors, cfg)
		}
	}
}

// Coarse ε-dedup makes claim ordering decisive: many candidates share keys,
// so any deviation from the legacy per-world visit order shows up here.
func TestSharedMatchesLegacyCoarseDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	road := testRoad()
	cfg := DefaultConfig()
	cfg.PosEps = 3.0
	cfg.HeadingEps = 0.5
	cfg.SpeedEps = 4.0
	for iter := 0; iter < 12; iter++ {
		ego, actors := randomScene(rng, 2+rng.Intn(5))
		requireSharedMatchesLegacy(t, "coarse", road, ego, actors, cfg)
	}
}

// A blocked root (ego starting in contact) must zero the affected worlds
// before any expansion happens, exactly like the legacy slice-0 check.
func TestSharedRootBlocked(t *testing.T) {
	cfg := DefaultConfig()
	road := testRoad()
	ego := egoState(0, 1.75, 10)
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(0.5, 1.75)}), // on top of ego
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(20, 5.25), Speed: 5}),
	}
	requireSharedMatchesLegacy(t, "root-blocked", road, ego, actors, cfg)
}

// Segmented masks: 64+-actor scenes exercise word 1 and beyond of the
// per-state mask (the retired single-word engine capped at 63 actors and
// spilled the rest onto legacy fallback tubes). 64 actors straddle the
// first word boundary (65 worlds), 70 sits inside word 1, and 130 needs
// three words — every world must still be bitwise-legacy.
func TestSharedMatchesLegacySegmented(t *testing.T) {
	if testing.Short() {
		t.Skip("64-130-actor differential scenes")
	}
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig()
	road := testRoad()
	for _, n := range []int{64, 70, 130} {
		ego, actors := randomScene(rng, n)
		requireSharedMatchesLegacy(t, "segmented", road, ego, actors, cfg)
	}
}

// The per-slice MaxStates cap replay must hold across word boundaries too:
// different worlds of different words cap at different candidates.
func TestSharedMatchesLegacySegmentedUnderCap(t *testing.T) {
	if testing.Short() {
		t.Skip("capped 80-actor differential scenes")
	}
	rng := rand.New(rand.NewSource(19))
	road := testRoad()
	for _, maxStates := range []int{2, 8, 40} {
		cfg := DefaultConfig()
		cfg.MaxStates = maxStates
		ego, actors := randomScene(rng, 80)
		requireSharedMatchesLegacy(t, "segmented-cap", road, ego, actors, cfg)
	}
}

// The word-indexed mask handling must agree with the one-word case even
// when a scene fits one word: force extra mask words and compare against
// the natural one-word result bitwise. Random scenes take the cold path;
// stop-and-go and ring session traces also take the warm path, one
// WarmState per forced width, so the wide-mask warm bookkeeping is covered
// by the cheap small-scene suites, not only the 64+-actor ones.
func TestSharedSegmentedForcedWords(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := DefaultConfig()
	road := testRoad()
	scr := NewScratch()
	requireSame := func(tag string, want, got SharedTubes) {
		t.Helper()
		if got.BaseVolume != want.BaseVolume {
			t.Errorf("%s: base %v, single-word %v", tag, got.BaseVolume, want.BaseVolume)
		}
		if got.States != want.States {
			t.Errorf("%s: states %d, single-word %d", tag, got.States, want.States)
		}
		for i := range want.WithoutVolume {
			if got.WithoutVolume[i] != want.WithoutVolume[i] {
				t.Errorf("%s world /%d: %v, single-word %v", tag, i, got.WithoutVolume[i], want.WithoutVolume[i])
			}
		}
	}
	for iter := 0; iter < 8; iter++ {
		n := 1 + rng.Intn(6)
		ego, actors := randomScene(rng, n)
		trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
		obs := BuildObstacles(actors, trajs, cfg)
		want, _ := ComputeCounterfactuals(road, obs, ego, cfg, nil, nil)
		if want.MaskWords != 1 {
			t.Fatalf("iter %d: small scene took %d words", iter, want.MaskWords)
		}
		for _, words := range []int{2, 3} {
			base, without := expand(road, obs, ego, cfg, scr, nil, 1+n, words)
			got := sharedTubes(base, without, words)
			requireSame(fmt.Sprintf("iter %d words %d", iter, words), want, got)
		}
	}

	type trace struct {
		tag   string
		m     roadmap.Map
		ticks []scenario.SessionTick
	}
	var traces []trace
	{
		m, tr := scenario.StopAndGoSession(12, 12)
		traces = append(traces, trace{"stop-and-go", m, tr})
	}
	{
		m, tr := scenario.RingSession(8, 12)
		traces = append(traces, trace{"ring", m, tr})
	}
	for _, tr := range traces {
		warm := map[int]*WarmState{2: NewWarmState(), 3: NewWarmState()}
		for tick, tk := range tr.ticks {
			trajs := actor.PredictAll(tk.Actors, cfg.NumSlices(), cfg.SliceDt)
			obs := BuildObstacles(tk.Actors, trajs, cfg)
			want, _ := ComputeCounterfactuals(tr.m, obs, tk.Ego, cfg, nil, nil)
			for _, words := range []int{2, 3} {
				got, _ := warm[words].compute(tr.m, obs, tk.Ego, cfg, scr, words)
				requireSame(fmt.Sprintf("%s tick %d warm words %d", tr.tag, tick, words), want, got)
			}
		}
	}
}

// Scratch reuse across calls (the serving hot path) must not leak state
// between evaluations, including across changing world counts and mask
// widths — a 70-actor scene between small ones forces the word count to
// grow and shrink on the same scratch.
func TestSharedScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := DefaultConfig()
	road := testRoad()
	scr := NewScratch()
	sizes := []int{3, 7, 70, 5, 66, 2, 70, 4, 130, 6}
	for iter, n := range sizes {
		ego, actors := randomScene(rng, n)
		trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
		obs := BuildObstacles(actors, trajs, cfg)
		fresh, _ := ComputeCounterfactuals(road, obs, ego, cfg, nil, nil)
		reused, _ := ComputeCounterfactuals(road, obs, ego, cfg, scr, nil)
		if fresh.BaseVolume != reused.BaseVolume {
			t.Fatalf("iter %d (n=%d): base %v vs %v with reused scratch", iter, n, fresh.BaseVolume, reused.BaseVolume)
		}
		for i := range fresh.WithoutVolume {
			if fresh.WithoutVolume[i] != reused.WithoutVolume[i] {
				t.Fatalf("iter %d (n=%d) world /%d: %v vs %v with reused scratch",
					iter, n, i, fresh.WithoutVolume[i], reused.WithoutVolume[i])
			}
		}
	}
}

// One Scratch shared by expansions of different mask widths keeps a
// claimed-key set and a mask grid per width: 1-, 2- and 3-word expansions
// run in alternation on one scratch stay bitwise equal to fresh-scratch
// results, and once every width has run, the alternation allocates no more
// per call than repeating one width (a scratch that dropped its tables on
// each width change would regrow them on every call).
func TestSharedScratchAcrossWidths(t *testing.T) {
	cfg := DefaultConfig()
	road := testRoad()
	ego, actors := randomScene(rand.New(rand.NewSource(5)), 6)
	obs := BuildObstacles(actors, actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt), cfg)
	widths := []int{1, 2, 3}
	run := func(scr *Scratch, words int) (Tube, []float64) {
		return expand(road, obs, ego, cfg, scr, nil, 1+len(actors), words)
	}
	wantTube := make([]Tube, len(widths))
	wantWithout := make([][]float64, len(widths))
	for i, w := range widths {
		wantTube[i], wantWithout[i] = run(NewScratch(), w)
	}
	scr := NewScratch()
	for round := 0; round < 3; round++ {
		for i, w := range widths {
			tube, without := run(scr, w)
			if !reflect.DeepEqual(tube, wantTube[i]) || !reflect.DeepEqual(without, wantWithout[i]) {
				t.Fatalf("round %d words %d: shared scratch diverges from a fresh one\n got %+v %v\nwant %+v %v",
					round, w, tube, without, wantTube[i], wantWithout[i])
			}
		}
	}

	const runs = 5
	alternating := testing.AllocsPerRun(runs, func() {
		for _, w := range widths {
			run(scr, w)
		}
	}) / float64(len(widths))
	for _, w := range widths {
		single := testing.AllocsPerRun(runs, func() { run(scr, w) })
		if alternating > single {
			t.Errorf("alternating widths allocates %.1f per call, repeating %d words %.1f", alternating, w, single)
		}
	}
}
