package sti

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// legacyOracle scores STI by the per-actor counterfactual definition: |T|
// and every |T^{/i}| from an expansion of its own, serially, with the
// reporting conventions the production engine must reproduce bit for bit:
// the cached |T^∅| backs every ratio, the dead-band certificate reports |T|
// for all without-volumes, an actor that never exclusively blocked a
// candidate footprint has T^{/i} = T, and a sole actor's T^{/0} is the
// cached empty tube. It is the reference the differential and fuzz suites
// compare the shared-expansion engine against, and it has an empty-volume
// cache of its own.
type legacyOracle struct {
	cfg reach.Config
	ev  *Evaluator // supplies the oracle's empty-volume cache and scratch
}

func newLegacyOracle(t testing.TB) *legacyOracle {
	t.Helper()
	ev, err := NewEvaluator(reach.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &legacyOracle{cfg: ev.cfg, ev: ev}
}

// Evaluate is the oracle's Result for the scene; trajs[i] must correspond
// to actors[i].
func (o *legacyOracle) Evaluate(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) Result {
	scr := o.ev.takeScratch()
	defer o.ev.putScratch(scr)
	if len(actors) == 0 {
		vol := reach.ComputeScratch(m, nil, ego, o.cfg, scr).Volume
		return Result{BaseVolume: vol, EmptyVolume: vol}
	}
	obs := reach.BuildObstacles(actors, trajs, o.cfg)
	emptyVol := o.ev.emptyVolume(m, ego, scr)
	marks := make([]bool, len(actors))
	base := reach.ComputeScratch(m, obs.CollideRecording(marks), ego, o.cfg, scr)
	res := Result{
		PerActor:      make([]float64, len(actors)),
		WithoutVolume: make([]float64, len(actors)),
		BaseVolume:    base.Volume,
		EmptyVolume:   emptyVol,
	}
	if emptyVol <= 0 {
		return res
	}
	res.Combined = snap(clamp01((emptyVol - base.Volume) / emptyVol))
	if res.Combined == 0 {
		for i := range actors {
			res.WithoutVolume[i] = base.Volume
		}
		return res
	}
	// Each actor's footprints on their own, so world /i can be rebuilt from
	// every actor but i without reaching into reach's internals.
	alone := make([]reach.CollisionFunc, len(actors))
	for i := range actors {
		alone[i] = reach.BuildObstacles(actors[i:i+1], trajs[i:i+1], o.cfg).Collide()
	}
	for i := range actors {
		switch {
		case !marks[i]:
			res.WithoutVolume[i] = base.Volume
		case len(actors) == 1:
			res.WithoutVolume[i] = emptyVol
			res.PerActor[i] = res.Combined
		default:
			wo := reach.ComputeScratch(m, collideWithout(alone, i), ego, o.cfg, scr)
			res.WithoutVolume[i] = wo.Volume
			res.PerActor[i] = snap(clamp01((wo.Volume - base.Volume) / emptyVol))
		}
	}
	return res
}

// collideWithout is the collision test of the world without actor skip:
// any other actor's footprint blocks.
func collideWithout(alone []reach.CollisionFunc, skip int) reach.CollisionFunc {
	return func(b *geom.PreparedBox, slice int) bool {
		for i, hit := range alone {
			if i != skip && hit(b, slice) {
				return true
			}
		}
		return false
	}
}
