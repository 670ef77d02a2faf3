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

// Metamorphic properties of Eq. 4/5, checked through Evaluate on the
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

// Reversing the actor list reverses PerActor and WithoutVolume and leaves
// the scene-level fields bitwise unchanged.
func TestEvaluateActorOrderReversal(t *testing.T) {
	ev := MustNewEvaluator(reach.DefaultConfig())
	cfg := ev.Config()
	for si, o := range multiActorScenes(t) {
		trajs := actor.PredictAll(o.Actors, cfg.NumSlices(), cfg.SliceDt)
		want := ev.Evaluate(o.Map, o.Ego, o.Actors, trajs)
		rev, revTrajs := slices.Clone(o.Actors), slices.Clone(trajs)
		slices.Reverse(rev)
		slices.Reverse(revTrajs)
		got := ev.Evaluate(o.Map, o.Ego, rev, revTrajs)
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
		want := ev.Evaluate(o.Map, o.Ego, o.Actors, trajs)
		far := actor.NewVehicle(1_000_000, vehicle.State{Pos: geom.V(o.Ego.Pos.X+1000, o.Ego.Pos.Y)})
		more := append(slices.Clone(o.Actors), far)
		moreTrajs := append(slices.Clone(trajs), actor.PredictAll([]*actor.Actor{far}, cfg.NumSlices(), cfg.SliceDt)...)
		got := ev.Evaluate(o.Map, o.Ego, more, moreTrajs)
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
