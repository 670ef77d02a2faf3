package sti

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/vehicle"
)

func blockingActors(n int) []*actor.Actor {
	actors := make([]*actor.Actor, n)
	for i := range actors {
		// Stopped vehicles straddling the ego's lane directly ahead, so every
		// one of them blocks escape routes and the counterfactuals matter.
		actors[i] = actor.NewVehicle(i, vehicle.State{Pos: ego(12+float64(6*i), 1.75, 0).Pos})
	}
	return actors
}

// TestEvaluateTracedMatchesEvaluate: tracing (a recorder in Score's
// context) must observe, never perturb, on the single-actor shortcut and
// on the shared engine alike.
func TestEvaluateTracedMatchesEvaluate(t *testing.T) {
	e := MustNewEvaluator(reach.DefaultConfig())
	for _, n := range []int{1, 3} {
		actors := blockingActors(n)
		trajs := groundTruth(e, actors)
		want := score(e, Query{testRoad(), ego(0, 1.75, 10), actors, trajs})
		ctx := trace.NewContext(context.Background(), trace.NewRecorder(trace.NewID()))
		got, _ := e.Score(ctx, Query{testRoad(), ego(0, 1.75, 10), actors, trajs}, nil)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%d actors: traced result diverged:\nwant %+v\ngot  %+v", n, want, got)
		}
	}
}

// The engine label tells the truth about the scene size: empty for no
// actors, single for one, shared for two or more.
func TestProvenanceEngines(t *testing.T) {
	ctxOf := func() (context.Context, *trace.Recorder) {
		rec := trace.NewRecorder(trace.NewID())
		return trace.NewContext(context.Background(), rec), rec
	}
	spanNames := func(rec *trace.Recorder) map[string]bool {
		names := map[string]bool{}
		for _, sp := range rec.Spans() {
			names[sp.Name] = true
		}
		return names
	}

	e := MustNewEvaluator(reach.DefaultConfig())
	actors := blockingActors(3)
	trajs := groundTruth(e, actors)

	ctx, rec := ctxOf()
	_, prov := e.Score(ctx, Query{testRoad(), ego(0, 1.75, 10), actors[:1], trajs[:1]}, nil)
	if prov.Engine != EngineSingle {
		t.Errorf("single-actor engine = %q, want %q", prov.Engine, EngineSingle)
	}
	if prov.CacheState != CacheMiss {
		t.Errorf("first single-actor eval cache state = %q, want %q", prov.CacheState, CacheMiss)
	}
	if prov.MaskWidth != 0 || prov.MaskWords != 0 {
		t.Errorf("single-actor mask width/words = %d/%d, want 0/0", prov.MaskWidth, prov.MaskWords)
	}
	if names := spanNames(rec); !names["reach.empty_tube"] || !names["reach.base_tube"] || names["reach.shared_expansion"] {
		t.Errorf("single-actor spans = %v", names)
	}

	for _, n := range []int{2, 3} {
		ctx, rec = ctxOf()
		_, prov = e.Score(ctx, Query{testRoad(), ego(0, 1.75, 10), actors[:n], trajs[:n]}, nil)
		if prov.Engine != EngineShared {
			t.Errorf("%d actors: engine = %q, want %q", n, prov.Engine, EngineShared)
		}
		if prov.MaskWidth != n {
			t.Errorf("%d actors: mask width = %d", n, prov.MaskWidth)
		}
		if names := spanNames(rec); !names["reach.empty_tube"] || !names["reach.shared_expansion"] {
			t.Errorf("%d actors: shared spans = %v", n, names)
		}
		// Every evaluation after the first at this pose hits the
		// empty-volume cache.
		if prov.CacheState != CacheHit {
			t.Errorf("%d actors: repeat cache state = %q, want %q", n, prov.CacheState, CacheHit)
		}
	}

	ctx, _ = ctxOf()
	_, prov = e.Score(ctx, Query{testRoad(), ego(0, 1.75, 10), nil, nil}, nil)
	if prov.Engine != EngineEmpty || prov.CacheState != CacheBypass {
		t.Errorf("empty-scene provenance = %+v", prov)
	}

	// No recorder in context: identical results, no spans, no panic.
	res, prov := e.Score(context.Background(), Query{testRoad(), ego(0, 1.75, 10), actors, trajs}, nil)
	if prov.Engine != EngineShared {
		t.Errorf("untraced ctx engine = %q", prov.Engine)
	}
	if want := score(e, Query{testRoad(), ego(0, 1.75, 10), actors, trajs}); !reflect.DeepEqual(res, want) {
		t.Error("untraced-ctx result diverged from Evaluate")
	}
}

// Provenance.ElidedActors must agree with the sti.counterfactuals.elided
// counter delta of the same evaluation, so the wire block and the metric
// cannot drift apart. Exercised on every scene class that elides or could:
// a lone blocker and a lone far actor (the single-actor shortcut, the
// latter also under the dead-band certificate), a mixed multi-actor scene,
// the shared engine's dead-band certificate and a dense scene.
func TestProvenanceElidedMatchesCounter(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	e := MustNewEvaluator(reach.DefaultConfig())
	// Mixed scene: two blockers dead ahead plus actors far beyond the
	// horizon that can never block.
	mixed := append(blockingActors(2),
		actor.NewVehicle(90, vehicle.State{Pos: ego(400, 1.75, 0).Pos}),
		actor.NewVehicle(91, vehicle.State{Pos: ego(450, 5.25, 0).Pos}),
	)
	// Dead-band scene: crawlers at the horizon's edge nudge the base tube
	// by less than the dead band, so the certificate elides all.
	farOnly := []*actor.Actor{
		actor.NewVehicle(95, vehicle.State{Pos: ego(420, 1.75, 0).Pos}),
		actor.NewVehicle(96, vehicle.State{Pos: ego(470, 5.25, 0).Pos}),
	}
	cases := []struct {
		name   string
		actors []*actor.Actor
	}{
		{"single-blocker", blockingActors(1)},
		{"single-deadband", farOnly[:1]},
		{"shared-mixed", mixed},
		{"shared-deadband", farOnly},
		{"shared-dense", blockingActors(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trajs := groundTruth(e, tc.actors)
			before := telElided.Value()
			_, prov := e.Score(context.Background(), Query{testRoad(), ego(0, 1.75, 10), tc.actors, trajs}, nil)
			delta := telElided.Value() - before
			if int64(prov.ElidedActors) != delta {
				t.Errorf("Provenance.ElidedActors = %d, counter delta = %d", prov.ElidedActors, delta)
			}
		})
	}
}

// The shared engine reports its mask geometry: width = every actor in the
// scene, words = ceil((1+width)/64); the single-actor shortcut reports none.
func TestProvenanceMaskWords(t *testing.T) {
	e := MustNewEvaluator(reach.DefaultConfig())
	actors := blockingActors(3)
	trajs := groundTruth(e, actors)
	_, prov := e.Score(context.Background(), Query{testRoad(), ego(0, 1.75, 10), actors, trajs}, nil)
	if prov.MaskWidth != 3 || prov.MaskWords != 1 {
		t.Errorf("mask width/words = %d/%d, want 3/1", prov.MaskWidth, prov.MaskWords)
	}
	_, prov = e.Score(context.Background(), Query{testRoad(), ego(0, 1.75, 10), actors[:1], trajs[:1]}, nil)
	if prov.MaskWidth != 0 || prov.MaskWords != 0 {
		t.Errorf("single-actor mask width/words = %d/%d, want 0/0", prov.MaskWidth, prov.MaskWords)
	}
}
