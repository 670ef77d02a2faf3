// Package sti implements the Safety-Threat Indicator — the iPrism paper's
// primary contribution (§III-A). STI answers the counterfactual query "how
// many more escape routes would the ego vehicle have if actor i were not
// present?", using reach-tube volumes as the measure of escape routes:
//
//	STI_i        = (|T^{/i}| − |T|) / |T^∅|        (Eq. 4)
//	STI_combined = (|T^∅|   − |T|) / |T^∅|        (Eq. 5)
//
// where |T| is the tube with every actor present, |T^{/i}| without actor i,
// and |T^∅| in an empty world.
package sti

import (
	"context"
	"math"
	"sync"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/vehicle"
)

// Telemetry (collected only when telemetry.Enable has been called; see
// DESIGN.md "Observability" for the metric index).
var (
	telEvaluations   = telemetry.NewCounter("sti.evaluations")
	telEvalSeconds   = telemetry.NewHistogram("sti.evaluate.seconds", telemetry.LatencyBuckets())
	telActorsPerEval = telemetry.NewHistogram("sti.actors_per_eval", telemetry.LinearBuckets(0, 1, 16))
	// telCombinedSeconds times Combined. It registers on Combined's first
	// call, not at package init, so a binary that never takes the fast
	// path (iprism-serve) does not export a series it cannot move.
	telCombinedSeconds = sync.OnceValue(func() *telemetry.Histogram {
		return telemetry.NewHistogram("sti.evaluate_combined.seconds", telemetry.LatencyBuckets())
	})
	// telElided counts per-actor counterfactual results reported without
	// their own expansion: the sole actor of a one-actor scene, and every
	// actor covered by the dead-band certificate.
	telElided = telemetry.NewCounter("sti.counterfactuals.elided")
	// Shared-expansion engine (every scene of two or more actors): latency
	// and how many 64-bit mask words the expansion needed (one bit per
	// actor plus the base world). Its call count is reach.shared.computes
	// and its world count reach.shared.worlds.
	telSharedSeconds   = telemetry.NewHistogram("sti.shared_expansion.seconds", telemetry.LatencyBuckets())
	telSharedMaskWords = telemetry.NewHistogram("sti.shared_expansion.mask_words", telemetry.LinearBuckets(0, 1, 5))
	// Warm-start path (Score with a WarmState): the fraction of warm-capable
	// evaluations whose previous-tick expansion state was actually usable
	// (ego root bitwise-stable, same config/map/actor count).
	telWarmHitRatio = telemetry.NewGauge("sti.warm.hit_ratio")
)

// Result holds STI values for one evaluation instant.
type Result struct {
	// PerActor[i] is STI of actors[i] in [0, 1].
	PerActor []float64
	// Combined is STI^(combined) in [0, 1].
	Combined float64

	// Raw tube volumes backing the ratios, useful for diagnostics and the
	// paper's Fig. 7 visualisations.
	BaseVolume    float64   // |T|
	EmptyVolume   float64   // |T^∅|
	WithoutVolume []float64 // |T^{/i}|
}

// MostThreatening returns the index and value of the highest per-actor STI,
// or (-1, 0) if there are no actors.
func (r Result) MostThreatening() (int, float64) {
	best, bestV := -1, 0.0
	for i, v := range r.PerActor {
		if best == -1 || v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// Options once tuned evaluator behaviour beyond the reach-tube
// configuration. Every field is now ignored.
//
// Deprecated: use NewEvaluator. Kept only because perfbench/ sets it.
type Options struct {
	Workers         int
	SharedExpansion bool
	WarmStart       bool
}

// Evaluator computes STI for scenes. It is stateless apart from
// configuration, the empty-world volume cache and pooled scratch memory,
// and is safe for concurrent use.
//
// Scenes of two or more actors are scored by the shared-expansion engine
// (reach.ComputeCounterfactuals): one masked expansion yields |T| and every
// |T^{/i}|, bitwise-identical to expanding each counterfactual world on
// its own (DESIGN.md §8). Empty and single-actor scenes take exact
// shortcuts with nothing to share.
type Evaluator struct {
	cfg   reach.Config
	cache *emptyCache
	// scratch pools *reach.Scratch so concurrent evaluations reuse
	// frontier slices, dedup maps and occupancy grids instead of churning
	// the GC.
	scratch sync.Pool
}

// NewEvaluator returns an evaluator with the given reach-tube configuration.
func NewEvaluator(cfg reach.Config) (*Evaluator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{cfg: cfg, cache: newEmptyCache()}
	e.scratch.New = func() any { return reach.NewScratch() }
	return e, nil
}

// NewEvaluatorOptions is NewEvaluator; every Options field is ignored.
//
// Deprecated: use NewEvaluator. Kept only because perfbench/ calls it.
func NewEvaluatorOptions(cfg reach.Config, _ Options) (*Evaluator, error) {
	return NewEvaluator(cfg)
}

// MustNewEvaluator is NewEvaluator for known-good configurations.
func MustNewEvaluator(cfg reach.Config) *Evaluator {
	e, err := NewEvaluator(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the evaluator's reach configuration.
func (e *Evaluator) Config() reach.Config { return e.cfg }

// Query is one STI question: the ego at state Ego on map Map among Actors.
// Trajs[i] is the (predicted or ground-truth) trajectory of Actors[i]; a
// nil Trajs forecasts every actor with the CVTR model, the configuration
// the SMC uses online (§IV-C).
type Query struct {
	Map    roadmap.Map
	Ego    vehicle.State
	Actors []*actor.Actor
	Trajs  []actor.Trajectory
}

// trajectories returns q.Trajs, or CVTR forecasts when it is nil.
func (e *Evaluator) trajectories(q Query) []actor.Trajectory {
	if q.Trajs != nil || len(q.Actors) == 0 {
		return q.Trajs
	}
	return actor.PredictAll(q.Actors, e.cfg.NumSlices(), e.cfg.SliceDt)
}

// Score computes per-actor (Eq. 4) and combined (Eq. 5) STI for q. Spans
// land on the trace.Recorder carried by ctx, if any (a nil recorder costs
// one pointer check per span), and the returned Provenance reports which
// engine scored the scene, the empty-volume cache outcome and the
// certificate work skipped.
//
// ws, when non-nil, carries the previous tick of one session stream: path-
// sweep verdicts that provably cannot have changed since that tick are
// reused instead of recomputed, and the Result is bitwise the cold one
// (see reach.ComputeCounterfactuals). A nil ws, a scene of fewer than two
// actors, or a ws another call owns right now scores cold.
//
// The reporting conventions are those of the per-actor definition the
// differential suites check against: the cached |T^∅| backs every ratio,
// every value passes through the same snap(clamp01(·)) pipeline, and the
// dead-band certificate reports |T| for the without-volumes it skips.
func (e *Evaluator) Score(ctx context.Context, q Query, ws *WarmState) (Result, Provenance) {
	rec := trace.FromContext(ctx)
	actors, trajs := q.Actors, e.trajectories(q)
	n := len(actors)
	// Warm start only exists for the shared engine on multi-actor scenes.
	// Single-owner gate: a WarmState must never be mutated by two
	// evaluations at once. Losing the CAS means another call is mid-tick on
	// this state — score cold rather than block the request path.
	var rws *reach.WarmState
	if ws != nil && n > 1 && ws.busy.CompareAndSwap(false, true) {
		defer ws.release()
		rws = &ws.rs
	}

	defer telEvalSeconds.Start().Stop()
	telEvaluations.Inc()
	telActorsPerEval.Observe(float64(n))
	scr := e.takeScratch()
	defer e.putScratch(scr)
	if n == 0 {
		sp := rec.StartSpan("reach.empty_tube")
		vol := reach.Compute(q.Map, nil, q.Ego, e.cfg, scr).Volume
		sp.End()
		return Result{BaseVolume: vol, EmptyVolume: vol}, Provenance{Engine: EngineEmpty, CacheState: CacheBypass}
	}
	if n > 1 {
		defer telSharedSeconds.Start().Stop()
	}
	obs := reach.BuildObstacles(actors, trajs, e.cfg)
	sp := rec.StartSpan("reach.empty_tube")
	emptyVol, cacheState := e.emptyVolumeState(q.Map, q.Ego, scr)
	sp.Annotate("cache_state", cacheState).End()
	prov := Provenance{Engine: EngineShared, CacheState: cacheState}

	var base reach.Tube
	var without []float64
	if n == 1 {
		// One actor: removing it leaves the empty world, so |T^{/0}| is the
		// cached |T^∅| the combined ratio already uses, and a masked
		// expansion would have nothing to share. The base tube reports
		// whether the actor ever blocked a footprint it tested; if it never
		// did, the deterministic expansion without it is identical, and
		// T^{/0} = T exactly.
		prov.Engine = EngineSingle
		sp = rec.StartSpan("reach.base_tube")
		base = reach.Compute(q.Map, obs, q.Ego, e.cfg, scr)
		sp.End()
	} else {
		// Two or more: one masked expansion yields |T| and every |T^{/i}|
		// at once; the masks are segmented, so it carries every actor. The
		// span carries the expansion's shape, plus the warm-start outcome
		// on warm calls; perfbench's ledger and iprism-risktrace read it by
		// name.
		sp = rec.StartSpan("reach.shared_expansion")
		sh, stats := reach.ComputeCounterfactuals(q.Map, obs, q.Ego, e.cfg, scr, rws)
		if sp != nil {
			sp.Annotate("states", sh.States).
				Annotate("represented", sh.Represented).
				Annotate("mask_words", sh.MaskWords)
			if rws != nil {
				sp.Annotate("warm_hit", stats.Hit).
					Annotate("warm_reused", stats.Reused).
					Annotate("warm_invalidated", stats.Invalidated)
			}
			sp.End()
		}
		if rws != nil {
			prov.WarmHit = stats.Hit
			prov.WarmReused = stats.Reused
			prov.WarmInvalidated = stats.Invalidated
			noteWarmOutcome(stats.Hit)
		}
		telSharedMaskWords.Observe(float64(sh.MaskWords))
		prov.MaskWidth = sh.Represented
		prov.MaskWords = sh.MaskWords
		base.Volume, without = sh.BaseVolume, sh.WithoutVolume
	}

	res := Result{
		PerActor:      make([]float64, n),
		WithoutVolume: make([]float64, n),
		BaseVolume:    base.Volume,
		EmptyVolume:   emptyVol,
	}
	if emptyVol <= 0 {
		// The ego has no escape routes even in an empty world (off-road or
		// wedged); actors cannot be responsible, so STI is defined as zero.
		return res, prov
	}
	res.Combined = snap(clamp01((emptyVol - base.Volume) / emptyVol))

	// Dead-band certificate: |T| ≤ |T^{/i}| ≤ |T^∅| (up to the dedup
	// jitter the dead band exists to absorb), so every per-actor ratio is
	// bounded by the combined ratio. A combined STI snapped to zero
	// certifies every per-actor STI snaps to zero too; |T| stands in for
	// the without-volumes (correct to within deadBand·|T^∅|). The sole
	// actor of a one-actor scene never gets its own tube, so it always
	// counts as elided.
	if res.Combined == 0 || n == 1 {
		telElided.Add(int64(n))
		prov.ElidedActors = n
		if res.Combined > 0 && base.Blocked {
			res.WithoutVolume[0] = emptyVol
			res.PerActor[0] = res.Combined
			return res, prov
		}
		for i := range res.WithoutVolume {
			res.WithoutVolume[i] = base.Volume
		}
		return res, prov
	}
	for i, wo := range without {
		res.WithoutVolume[i] = wo
		res.PerActor[i] = snap(clamp01((wo - base.Volume) / emptyVol))
	}
	return res, prov
}

// Deprecated: use Score. Kept only because perfbench/ calls it.
func (e *Evaluator) Evaluate(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) Result {
	res, _ := e.Score(context.Background(), Query{m, ego, actors, trajs}, nil)
	return res
}

// Deprecated: use Score. Kept only because perfbench/ calls it.
func (e *Evaluator) EvaluateWithPrediction(m roadmap.Map, ego vehicle.State, actors []*actor.Actor) Result {
	return e.Evaluate(m, ego, actors, nil)
}

// Deprecated: use Score. Kept only because perfbench/ calls it.
func (e *Evaluator) EvaluateWarm(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, ws *WarmState) (Result, Provenance) {
	return e.Score(context.Background(), Query{m, ego, actors, trajs}, ws)
}

// Deprecated: use Combined. Kept only because perfbench/ calls it.
func (e *Evaluator) CombinedWithPrediction(m roadmap.Map, ego vehicle.State, actors []*actor.Actor) float64 {
	return e.Combined(Query{Map: m, Ego: ego, Actors: actors})
}

// deadBand absorbs the bounded quantisation error of the cached empty-world
// volume: ratios below it are reported as exactly zero risk.
const deadBand = 0.03

func snap(v float64) float64 {
	if v < deadBand {
		return 0
	}
	return v
}

// Combined computes only STI^(combined) for q, skipping the per-actor
// counterfactuals. This is the fast path used inside the SMC reward loop:
// one single-world expansion of the base tube, with no world bit per
// actor, plus the empty tube, which the cache usually serves.
func (e *Evaluator) Combined(q Query) float64 {
	trajs := e.trajectories(q)
	defer telCombinedSeconds().Start().Stop()
	telEvaluations.Inc()
	telActorsPerEval.Observe(float64(len(q.Actors)))
	if len(q.Actors) == 0 {
		return 0
	}
	scr := e.takeScratch()
	defer e.putScratch(scr)
	obs := reach.BuildObstacles(q.Actors, trajs, e.cfg)
	emptyVol := e.emptyVolume(q.Map, q.Ego, scr)
	if emptyVol <= 0 {
		return 0
	}
	base := reach.Compute(q.Map, obs, q.Ego, e.cfg, scr)
	return snap(clamp01((emptyVol - base.Volume) / emptyVol))
}

func (e *Evaluator) takeScratch() *reach.Scratch { return e.scratch.Get().(*reach.Scratch) }
func (e *Evaluator) putScratch(s *reach.Scratch) { e.scratch.Put(s) }

func clamp01(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
