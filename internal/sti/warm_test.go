package sti

import (
	"context"
	"sync"
	"testing"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/scenario"
)

// End-to-end warm contract: replaying a session trace through EvaluateWarm
// with one WarmState yields Results bitwise-identical to the stateless
// Evaluate at every tick, with provenance reporting a hit (and real verdict
// reuse) from tick 1 on.
func TestEvaluateWarmMatchesColdSessionTraces(t *testing.T) {
	e := MustNewEvaluator(reach.DefaultConfig())
	type traceCase struct {
		tag   string
		ticks int
		n     int
	}
	for _, tc := range []traceCase{{"stop-and-go-12", 20, 12}, {"stop-and-go-16", 10, 16}} {
		m, tr := scenario.StopAndGoSession(tc.n, tc.ticks)
		ws := NewWarmState()
		hits, reused := 0, 0
		for tick, tk := range tr {
			trajs := actor.PredictAll(tk.Actors, e.cfg.NumSlices(), e.cfg.SliceDt)
			want := score(e, Query{m, tk.Ego, tk.Actors, trajs})
			got, prov := e.Score(context.Background(), Query{m, tk.Ego, tk.Actors, trajs}, ws)
			requireIdentical(t, tick, want, got)
			if prov.Engine != EngineShared {
				t.Fatalf("%s tick %d: engine %q, want shared", tc.tag, tick, prov.Engine)
			}
			if prov.WarmHit {
				hits++
				reused += prov.WarmReused
			} else if tick > 0 {
				t.Errorf("%s tick %d: warm miss on a bitwise-static ego", tc.tag, tick)
			}
		}
		if hits != tc.ticks-1 {
			t.Errorf("%s: %d warm hits across %d ticks, want %d", tc.tag, hits, tc.ticks, tc.ticks-1)
		}
		if reused == 0 {
			t.Errorf("%s: provenance never reported a reused verdict", tc.tag)
		}
	}
}

// The segmented engine (64+ actors) through the full sti pipeline: warm
// replay of the UrbanCrush crawl must match cold exactly.
func TestEvaluateWarmSegmented(t *testing.T) {
	if testing.Short() {
		t.Skip("64-actor warm replay")
	}
	e := MustNewEvaluator(reach.DefaultConfig())
	m, tr := scenario.UrbanCrushSession(64, 6)
	ws := NewWarmState()
	for tick, tk := range tr {
		trajs := actor.PredictAll(tk.Actors, e.cfg.NumSlices(), e.cfg.SliceDt)
		want := score(e, Query{m, tk.Ego, tk.Actors, trajs})
		got, prov := e.Score(context.Background(), Query{m, tk.Ego, tk.Actors, trajs}, ws)
		requireIdentical(t, tick, want, got)
		if tick > 0 && !prov.WarmHit {
			t.Errorf("tick %d: warm miss on the static crush ego", tick)
		}
	}
}

// Degradation ladder: EvaluateWarm must behave exactly like Evaluate when
// warm start cannot apply — nil state, or a scene outside the shared gate
// (0/1 actors).
func TestEvaluateWarmDegradesToCold(t *testing.T) {
	m, tr := scenario.StopAndGoSession(12, 1)
	tk := tr[0]
	trajs := actor.PredictAll(tk.Actors, reach.DefaultConfig().NumSlices(), reach.DefaultConfig().SliceDt)

	e := MustNewEvaluator(reach.DefaultConfig())
	want := score(e, Query{m, tk.Ego, tk.Actors, trajs})
	got, prov := e.Score(context.Background(), Query{m, tk.Ego, tk.Actors, trajs}, nil)
	requireIdentical(t, 0, want, got)
	if prov.WarmHit || prov.WarmReused != 0 {
		t.Errorf("nil WarmState produced warm provenance %+v", prov)
	}

	one := tk.Actors[:1]
	oneTrajs := actor.PredictAll(one, e.cfg.NumSlices(), e.cfg.SliceDt)
	wantOne := score(e, Query{m, tk.Ego, one, oneTrajs})
	gotOne, prov := e.Score(context.Background(), Query{m, tk.Ego, one, oneTrajs}, NewWarmState())
	requireIdentical(t, 1, wantOne, gotOne)
	if prov.Engine != EngineSingle {
		t.Errorf("single-actor scene scored on engine %q, want %q", prov.Engine, EngineSingle)
	}
}

// A WarmState hammered by concurrent EvaluateWarm calls must stay correct:
// the CAS gate admits one owner per tick and every loser scores cold, so
// all results are bitwise-identical to Evaluate regardless of interleaving.
func TestEvaluateWarmContention(t *testing.T) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m, tr := scenario.StopAndGoSession(12, 8)
	ws := NewWarmState()
	want := make([]Result, len(tr))
	trajs := make([][]actor.Trajectory, len(tr))
	for i, tk := range tr {
		trajs[i] = actor.PredictAll(tk.Actors, e.cfg.NumSlices(), e.cfg.SliceDt)
		want[i] = score(e, Query{m, tk.Ego, tk.Actors, trajs[i]})
	}
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i, tk := range tr {
				got, _ := e.Score(context.Background(), Query{m, tk.Ego, tk.Actors, trajs[i]}, ws)
				requireIdentical(t, i, want[i], got)
			}
		}()
	}
	wg.Wait()
}
