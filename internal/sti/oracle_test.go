package sti

import (
	"slices"
	"testing"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// legacyOracle scores STI by the per-actor counterfactual definition: |T|
// and every |T^{/i}| from a single-world expansion of its own, each over
// the obstacles of that world's actors, serially, with the reporting
// conventions the production engine must reproduce bit for bit: the cached
// |T^∅| backs every ratio, the dead-band certificate reports |T| for all
// without-volumes, and a sole actor's T^{/0} is the cached empty tube when
// the base tube reports it Blocked and T itself otherwise. It is the
// reference the differential and fuzz suites compare the shared-expansion
// engine against, and it has an empty-volume cache of its own.
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
		vol := reach.Compute(m, nil, ego, o.cfg, scr).Volume
		return Result{BaseVolume: vol, EmptyVolume: vol}
	}
	emptyVol := o.ev.emptyVolume(m, ego, scr)
	base := reach.Compute(m, reach.BuildObstacles(actors, trajs, o.cfg), ego, o.cfg, scr)
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
	if len(actors) == 1 {
		res.WithoutVolume[0] = base.Volume
		if base.Blocked {
			res.WithoutVolume[0] = emptyVol
			res.PerActor[0] = res.Combined
		}
		return res
	}
	for i := range actors {
		others := slices.Delete(slices.Clone(actors), i, i+1)
		otherTrajs := slices.Delete(slices.Clone(trajs), i, i+1)
		wo := reach.Compute(m, reach.BuildObstacles(others, otherTrajs, o.cfg), ego, o.cfg, scr)
		res.WithoutVolume[i] = wo.Volume
		res.PerActor[i] = snap(clamp01((wo.Volume - base.Volume) / emptyVol))
	}
	return res
}
