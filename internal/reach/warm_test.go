package reach

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/scenario"
)

// requireTubesIdentical asserts got is bitwise-identical to want across
// every observable of a shared expansion — volumes, state count, mask
// shape. This is the warm path's contract: not "close", equal.
func requireTubesIdentical(t *testing.T, tag string, tick int, want, got SharedTubes) {
	t.Helper()
	if got.BaseVolume != want.BaseVolume {
		t.Errorf("%s tick %d: base volume %v, cold %v", tag, tick, got.BaseVolume, want.BaseVolume)
	}
	if got.States != want.States {
		t.Errorf("%s tick %d: states %d, cold %d", tag, tick, got.States, want.States)
	}
	if got.Represented != want.Represented || got.MaskWords != want.MaskWords {
		t.Errorf("%s tick %d: mask %d/%d words, cold %d/%d",
			tag, tick, got.Represented, got.MaskWords, want.Represented, want.MaskWords)
	}
	if len(got.WithoutVolume) != len(want.WithoutVolume) {
		t.Fatalf("%s tick %d: %d without-volumes, cold %d", tag, tick, len(got.WithoutVolume), len(want.WithoutVolume))
	}
	for i := range want.WithoutVolume {
		if got.WithoutVolume[i] != want.WithoutVolume[i] {
			t.Errorf("%s tick %d world /%d: %v, cold %v", tag, tick, i, got.WithoutVolume[i], want.WithoutVolume[i])
		}
	}
}

// replayWarmVsCold replays a recorded session trace through the warm engine
// (one WarmState across all ticks, like a server session) and the cold
// engine side by side, requiring bitwise-identical tubes at every tick.
// Cold and warm share one expansion loop, so every warm tick is also held
// to the per-world legacy oracle, which shares none of its bookkeeping.
// Returns the per-tick warm stats for reuse assertions.
func replayWarmVsCold(t *testing.T, tag string, m roadmap.Map, trace []scenario.SessionTick, cfg Config) []WarmStats {
	t.Helper()
	ws := NewWarmState()
	warmScr, coldScr := NewScratch(), NewScratch()
	stats := make([]WarmStats, len(trace))
	for tick, tk := range trace {
		trajs := actor.PredictAll(tk.Actors, cfg.NumSlices(), cfg.SliceDt)
		obs := BuildObstacles(tk.Actors, trajs, cfg)
		want, _ := ComputeCounterfactuals(m, obs, tk.Ego, cfg, coldScr, nil)
		var got SharedTubes
		got, stats[tick] = ComputeCounterfactuals(m, obs, tk.Ego, cfg, warmScr, ws)
		requireTubesIdentical(t, tag, tick, want, got)
		requireTubesMatchLegacy(t, fmt.Sprintf("%s tick %d", tag, tick), m, obs, tk.Ego, cfg, got)
	}
	return stats
}

// The tentpole differential property over the three recorded fixture
// traces: straight-road stop-and-go, ring circulation, and the 64-actor
// UrbanCrush crawl (segmented masks). Warm replay must be bitwise-cold at
// every tick, and — since every fixture holds the ego bitwise-static — the
// state must validate from tick 1 on and actually reuse verdicts.
func TestWarmMatchesColdSessionTraces(t *testing.T) {
	cfg := DefaultConfig()
	type traceCase struct {
		tag   string
		m     roadmap.Map
		trace []scenario.SessionTick
	}
	var cases []traceCase
	{
		m, tr := scenario.StopAndGoSession(12, 20)
		cases = append(cases, traceCase{"stop-and-go", m, tr})
	}
	{
		m, tr := scenario.RingSession(8, 20)
		cases = append(cases, traceCase{"ring", m, tr})
	}
	if !testing.Short() {
		m, tr := scenario.UrbanCrushSession(64, 10)
		cases = append(cases, traceCase{"urban-crush-64", m, tr})
	}
	for _, tc := range cases {
		stats := replayWarmVsCold(t, tc.tag, tc.m, tc.trace, cfg)
		if stats[0].Hit {
			t.Errorf("%s: first tick reported a warm hit with no previous state", tc.tag)
		}
		reused := 0
		for tick, st := range stats[1:] {
			if !st.Hit {
				t.Errorf("%s tick %d: warm miss on a bitwise-static ego", tc.tag, tick+1)
			}
			reused += st.Reused
		}
		if reused == 0 {
			t.Errorf("%s: no verdict ever reused across %d warm ticks", tc.tag, len(stats)-1)
		}
	}
}

// Warm replay under a tiny MaxStates cap and coarse dedup: the regimes
// where claim ordering and the cap replay are decisive (the hard cases of
// the cold differential suite) must survive warm substitution too.
func TestWarmMatchesColdStressedConfigs(t *testing.T) {
	m, tr := scenario.StopAndGoSession(12, 12)
	capped := DefaultConfig()
	capped.MaxStates = 8
	replayWarmVsCold(t, "capped", m, tr, capped)

	coarse := DefaultConfig()
	coarse.PosEps = 3.0
	coarse.HeadingEps = 0.5
	coarse.SpeedEps = 4.0
	replayWarmVsCold(t, "coarse", m, tr, coarse)
}

// Every full-invalidation trigger must drop to a cold tick (Hit=false) and
// still produce bitwise-cold results: ego moved, config changed, actor
// count changed, map changed, and an uncacheable map family.
func TestWarmFullInvalidation(t *testing.T) {
	cfg := DefaultConfig()
	m, tr := scenario.StopAndGoSession(12, 2)
	ws := NewWarmState()
	scr := NewScratch()

	score := func(m roadmap.Map, tk scenario.SessionTick, cfg Config) (SharedTubes, WarmStats) {
		trajs := actor.PredictAll(tk.Actors, cfg.NumSlices(), cfg.SliceDt)
		obs := BuildObstacles(tk.Actors, trajs, cfg)
		want, _ := ComputeCounterfactuals(m, obs, tk.Ego, cfg, nil, nil)
		got, st := ComputeCounterfactuals(m, obs, tk.Ego, cfg, scr, ws)
		requireTubesIdentical(t, "invalidation", 0, want, got)
		return got, st
	}

	if _, st := score(m, tr[0], cfg); st.Hit {
		t.Error("fresh WarmState reported a hit")
	}
	if _, st := score(m, tr[1], cfg); !st.Hit {
		t.Error("unchanged session tick missed")
	}

	moved := tr[1]
	moved.Ego.Pos = moved.Ego.Pos.Add(geom.V(0.5, 0))
	if _, st := score(m, moved, cfg); st.Hit {
		t.Error("moved ego still hit")
	}

	score(m, tr[1], cfg) // re-seed
	changed := cfg
	changed.MaxStates = 64
	if _, st := score(m, tr[1], changed); st.Hit {
		t.Error("changed config still hit")
	}

	score(m, tr[1], cfg)
	fewer := tr[1]
	fewer.Actors = fewer.Actors[:len(fewer.Actors)-1]
	if _, st := score(m, fewer, cfg); st.Hit {
		t.Error("dropped actor still hit")
	}

	score(m, tr[1], cfg)
	other := roadmap.MustStraightRoad(4, 3.5, -120, 1100)
	if _, st := score(other, tr[1], cfg); st.Hit {
		t.Error("changed map still hit")
	}
}

// requireDenseArena checks the memo's arena layout: every block owns
// exactly nc×subSteps(parent speed) path and substep-box slots, laid end to
// end from offset 0 in insertion order, and the arenas hold nothing else.
// It returns how many blocks use fewer sub-steps than cfg.SubSteps.
func requireDenseArena(t *testing.T, tag string, ws *WarmState, cfg Config) int {
	t.Helper()
	m := &ws.memo
	if len(m.ctrls) != m.nc*len(m.blocks) {
		t.Fatalf("%s: %d control slots for %d blocks of %d", tag, len(m.ctrls), len(m.blocks), m.nc)
	}
	want, short := 0, 0
	for bi, b := range m.blocks {
		if int(b.off) != want {
			t.Fatalf("%s: block %d at path slot %d, want %d", tag, bi, b.off, want)
		}
		nsub := cfg.subSteps(math.Float64frombits(b.key[3]))
		if nsub < cfg.SubSteps {
			short++
		}
		want += m.nc * nsub
	}
	if len(m.paths) != want || len(m.subs) != want {
		t.Fatalf("%s: %d path and %d box slots, want Σ nc×subSteps = %d", tag, len(m.paths), len(m.subs), want)
	}
	return short
}

// The memo's path and substep-box arenas are dense: each parent block holds
// exactly the sub-steps its speed integrates with, not cfg.SubSteps, across
// the stop-and-go and 64-actor crush replays (both crawl, so most parents
// use fewer than the bound), and Reset empties the blocks and arenas so the
// next tick lays them out from offset 0 again.
func TestWarmMemoDenseArena(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		tag   string
		trace func() (roadmap.Map, []scenario.SessionTick)
	}{
		{"stop-and-go", func() (roadmap.Map, []scenario.SessionTick) { return scenario.StopAndGoSession(12, 8) }},
		{"crush", func() (roadmap.Map, []scenario.SessionTick) { return scenario.UrbanCrushSession(64, 8) }},
	} {
		m, trace := tc.trace()
		ws, scr := NewWarmState(), NewScratch()
		short := 0
		for tick, tk := range trace {
			trajs := actor.PredictAll(tk.Actors, cfg.NumSlices(), cfg.SliceDt)
			obs := BuildObstacles(tk.Actors, trajs, cfg)
			ComputeCounterfactuals(m, obs, tk.Ego, cfg, scr, ws)
			short = requireDenseArena(t, fmt.Sprintf("%s tick %d", tc.tag, tick), ws, cfg)
		}
		if short == 0 {
			t.Errorf("%s: every block uses the full %d sub-steps; the replay does not exercise the dense layout", tc.tag, cfg.SubSteps)
		}
		ws.Reset()
		if mm := &ws.memo; len(mm.blocks) != 0 || len(mm.ctrls) != 0 || len(mm.paths) != 0 || len(mm.subs) != 0 {
			t.Fatalf("%s: Reset left %d blocks, %d controls, %d paths, %d boxes",
				tc.tag, len(mm.blocks), len(mm.ctrls), len(mm.paths), len(mm.subs))
		}
		tk := trace[len(trace)-1]
		trajs := actor.PredictAll(tk.Actors, cfg.NumSlices(), cfg.SliceDt)
		ComputeCounterfactuals(m, BuildObstacles(tk.Actors, trajs, cfg), tk.Ego, cfg, scr, ws)
		requireDenseArena(t, tc.tag+" after Reset", ws, cfg)
	}
}

// A nil WarmState is the documented cold passthrough.
func TestWarmNilState(t *testing.T) {
	cfg := DefaultConfig()
	m, tr := scenario.StopAndGoSession(12, 1)
	trajs := actor.PredictAll(tr[0].Actors, cfg.NumSlices(), cfg.SliceDt)
	obs := BuildObstacles(tr[0].Actors, trajs, cfg)
	want, _ := ComputeCounterfactuals(m, obs, tr[0].Ego, cfg, nil, nil)
	got, st := ComputeCounterfactuals(m, obs, tr[0].Ego, cfg, nil, nil)
	requireTubesIdentical(t, "nil-state", 0, want, got)
	if st.Hit || st.Reused != 0 || st.Invalidated != 0 {
		t.Errorf("nil WarmState reported warm stats %+v", st)
	}
}

// Reset must drop everything: the next tick is cold even on an identical
// scene.
func TestWarmReset(t *testing.T) {
	cfg := DefaultConfig()
	m, tr := scenario.StopAndGoSession(12, 2)
	ws := NewWarmState()
	for _, tk := range tr {
		trajs := actor.PredictAll(tk.Actors, cfg.NumSlices(), cfg.SliceDt)
		obs := BuildObstacles(tk.Actors, trajs, cfg)
		ComputeCounterfactuals(m, obs, tk.Ego, cfg, nil, ws)
	}
	ws.Reset()
	trajs := actor.PredictAll(tr[1].Actors, cfg.NumSlices(), cfg.SliceDt)
	obs := BuildObstacles(tr[1].Actors, trajs, cfg)
	if _, st := ComputeCounterfactuals(m, obs, tr[1].Ego, cfg, nil, ws); st.Hit {
		t.Error("warm hit straight after Reset")
	}
}

// FuzzWarmVsCold drives a warm session with one actor perturbed per tick —
// the adversarial input for the dirty-region revalidation — across both
// one-word (12-actor) and two-word (70-actor) masks, with the ego
// occasionally nudged to interleave full invalidations. Every tick must
// stay bitwise-cold and match the per-world legacy oracle.
func FuzzWarmVsCold(f *testing.F) {
	f.Add(int64(1), 0.3, -0.2, 1.0, false, false)
	f.Add(int64(42), -4.0, 0.9, -3.0, true, false)
	f.Add(int64(7), 0.0, 0.0, 0.0, false, true)
	f.Add(int64(99), 12.0, -1.5, 6.0, true, true)
	f.Fuzz(func(t *testing.T, seed int64, dx, dy, dv float64, moveEgo, segmented bool) {
		clamp := func(v, lim float64) float64 {
			switch {
			case v != v: // NaN
				return 0
			case v < -lim:
				return -lim
			case v > lim:
				return lim
			}
			return v
		}
		dx, dy, dv = clamp(dx, 30), clamp(dy, 7), clamp(dv, 10)

		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		road := testRoad()
		n := 12
		if segmented {
			n = 70
		}
		ego, actors := randomScene(rng, n)
		ws := NewWarmState()
		scr := NewScratch()
		for tick := 0; tick < 6; tick++ {
			// Perturb exactly one actor per tick; the fuzzed deltas scale
			// by the tick so consecutive ticks dirty different regions.
			i := rng.Intn(n)
			st := actors[i].State
			st.Pos = st.Pos.Add(geom.V(dx*float64(tick%3), dy*float64(tick%2)))
			st.Speed += dv
			if st.Speed < 0 {
				st.Speed = 0
			}
			actors[i] = actor.NewVehicle(actors[i].ID, st)
			if moveEgo && tick == 3 {
				ego.Pos = ego.Pos.Add(geom.V(1.0, 0))
			}
			trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
			obs := BuildObstacles(actors, trajs, cfg)
			want, _ := ComputeCounterfactuals(road, obs, ego, cfg, nil, nil)
			got, _ := ComputeCounterfactuals(road, obs, ego, cfg, scr, ws)
			requireTubesIdentical(t, "fuzz", tick, want, got)
			requireTubesMatchLegacy(t, fmt.Sprintf("fuzz tick %d", tick), road, obs, ego, cfg, got)
		}
	})
}
