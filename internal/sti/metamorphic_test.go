package sti

import (
	"math"
	"slices"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// Metamorphic properties of Eq. 4/5, checked through Score on the
// benchmark's scenes of two or more actors: the fixture snapshots and,
// outside -short, the UrbanCrush crowds. Each counterfactual world is a
// set of actors, so neither the order they are listed in nor an actor that
// no tube can reach may change any volume.

// multiActorScenes returns the benchmark scenes with at least two actors.
func multiActorScenes(t *testing.T) []sim.Observation {
	t.Helper()
	var out []sim.Observation
	for _, o := range benchmarkScenes(t) {
		if len(o.Actors) >= 2 {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		t.Fatal("no benchmark scene has two or more actors")
	}
	return out
}

// requireSameBits fails unless got and want are the same float64 bits.
func requireSameBits(t *testing.T, si int, field string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("scene %d: %s = %v, want %v", si, field, got, want)
	}
}

// The bounds Eq. 4/5 imply, checked through Score on every benchmark
// scene. The volumes carry the ε-dedup jitter the dead band exists to
// absorb (per-actor STI exceeds the combined STI by up to 0.0154, and a
// without-volume exceeds the cached |T^∅| by up to 1.8%, on these
// scenes), so the upper bounds hold within deadBand:
//
//   - STI_i and STI_combined lie in [0, 1];
//   - |T| ≤ |T^{/i}| ≤ |T^∅|·(1+deadBand);
//   - STI_i ≤ STI_combined + deadBand.
//
// The two read-outs of one query agree: Combined(q) is bitwise
// Score(q).Combined. A nil Trajs scores bitwise as explicit CVTR
// predictions.
func TestScoreProperties(t *testing.T) {
	ev := MustNewEvaluator(reach.DefaultConfig())
	cfg := ev.Config()
	for si, o := range benchmarkScenes(t) {
		q := Query{Map: o.Map, Ego: o.Ego, Actors: o.Actors}
		res := score(ev, q)
		if res.Combined < 0 || res.Combined > 1 {
			t.Errorf("scene %d: combined STI %v outside [0, 1]", si, res.Combined)
		}
		for i, v := range res.PerActor {
			if v < 0 || v > 1 {
				t.Errorf("scene %d actor %d: STI %v outside [0, 1]", si, i, v)
			}
			if v > res.Combined+deadBand {
				t.Errorf("scene %d actor %d: STI %v > combined %v + dead band", si, i, v, res.Combined)
			}
			if wo := res.WithoutVolume[i]; wo < res.BaseVolume || wo > res.EmptyVolume*(1+deadBand) {
				t.Errorf("scene %d actor %d: |T^{/i}| %v outside [|T| %v, |T^∅| %v·(1+dead band)]",
					si, i, wo, res.BaseVolume, res.EmptyVolume)
			}
		}
		requireSameBits(t, si, "Combined(q)", ev.Combined(q), res.Combined)

		q.Trajs = actor.PredictAll(o.Actors, cfg.NumSlices(), cfg.SliceDt)
		explicit := score(ev, q)
		requireSameBits(t, si, "nil-Trajs Combined", res.Combined, explicit.Combined)
		requireSameBits(t, si, "nil-Trajs BaseVolume", res.BaseVolume, explicit.BaseVolume)
		requireSameBits(t, si, "nil-Trajs EmptyVolume", res.EmptyVolume, explicit.EmptyVolume)
		for i := range explicit.PerActor {
			requireSameBits(t, si, "nil-Trajs PerActor", res.PerActor[i], explicit.PerActor[i])
			requireSameBits(t, si, "nil-Trajs WithoutVolume", res.WithoutVolume[i], explicit.WithoutVolume[i])
		}
	}
}

// Reversing the actor list reverses PerActor and WithoutVolume and leaves
// the scene-level fields bitwise unchanged.
func TestEvaluateActorOrderReversal(t *testing.T) {
	ev := MustNewEvaluator(reach.DefaultConfig())
	cfg := ev.Config()
	for si, o := range multiActorScenes(t) {
		trajs := actor.PredictAll(o.Actors, cfg.NumSlices(), cfg.SliceDt)
		want := score(ev, Query{o.Map, o.Ego, o.Actors, trajs})
		rev, revTrajs := slices.Clone(o.Actors), slices.Clone(trajs)
		slices.Reverse(rev)
		slices.Reverse(revTrajs)
		got := score(ev, Query{o.Map, o.Ego, rev, revTrajs})
		requireSameBits(t, si, "Combined", got.Combined, want.Combined)
		requireSameBits(t, si, "BaseVolume", got.BaseVolume, want.BaseVolume)
		requireSameBits(t, si, "EmptyVolume", got.EmptyVolume, want.EmptyVolume)
		n := len(o.Actors)
		for i := range o.Actors {
			requireSameBits(t, si, "reversed PerActor", got.PerActor[n-1-i], want.PerActor[i])
			requireSameBits(t, si, "reversed WithoutVolume", got.WithoutVolume[n-1-i], want.WithoutVolume[i])
		}
	}
}

// Appending a stationary actor 1 km ahead of the ego, beyond every slice's
// reach, leaves every existing field bitwise unchanged, and the new actor
// scores zero with T^{/new} = T.
func TestEvaluateUnreachableActorChangesNothing(t *testing.T) {
	ev := MustNewEvaluator(reach.DefaultConfig())
	cfg := ev.Config()
	for si, o := range multiActorScenes(t) {
		trajs := actor.PredictAll(o.Actors, cfg.NumSlices(), cfg.SliceDt)
		want := score(ev, Query{o.Map, o.Ego, o.Actors, trajs})
		far := actor.NewVehicle(1_000_000, vehicle.State{Pos: geom.V(o.Ego.Pos.X+1000, o.Ego.Pos.Y)})
		more := append(slices.Clone(o.Actors), far)
		moreTrajs := append(slices.Clone(trajs), actor.PredictAll([]*actor.Actor{far}, cfg.NumSlices(), cfg.SliceDt)...)
		got := score(ev, Query{o.Map, o.Ego, more, moreTrajs})
		requireSameBits(t, si, "Combined", got.Combined, want.Combined)
		requireSameBits(t, si, "BaseVolume", got.BaseVolume, want.BaseVolume)
		requireSameBits(t, si, "EmptyVolume", got.EmptyVolume, want.EmptyVolume)
		for i := range o.Actors {
			requireSameBits(t, si, "PerActor", got.PerActor[i], want.PerActor[i])
			requireSameBits(t, si, "WithoutVolume", got.WithoutVolume[i], want.WithoutVolume[i])
		}
		n := len(o.Actors)
		requireSameBits(t, si, "unreachable actor's PerActor", got.PerActor[n], 0)
		requireSameBits(t, si, "unreachable actor's WithoutVolume", got.WithoutVolume[n], want.BaseVolume)
	}
}
