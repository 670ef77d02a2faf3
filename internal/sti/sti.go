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
	telEvaluations     = telemetry.NewCounter("sti.evaluations")
	telEvalSeconds     = telemetry.NewHistogram("sti.evaluate.seconds", telemetry.LatencyBuckets())
	telCombinedSeconds = telemetry.NewHistogram("sti.evaluate_combined.seconds", telemetry.LatencyBuckets())
	telActorsPerEval   = telemetry.NewHistogram("sti.actors_per_eval", telemetry.LinearBuckets(0, 1, 16))
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
	// Warm-start path (Options.WarmStart): the fraction of warm-capable
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

// Options tunes evaluator behaviour beyond the reach-tube configuration.
type Options struct {
	// Deprecated: ignored; kept only because perfbench/ sets it.
	Workers int

	// Deprecated: ignored; kept only because perfbench/ sets it.
	SharedExpansion bool

	// WarmStart arms the temporal-coherence warm start: EvaluateWarm calls
	// holding a *WarmState reuse the previous tick's path-sweep verdicts
	// where provably unchanged (reach.ComputeCounterfactualsWarm), with
	// results bitwise-identical to the cold path. It only affects
	// EvaluateWarm/EvaluateWarmTraced — the stateless Evaluate entry points
	// have no previous tick to warm from — and empty and single-actor
	// scenes always score cold.
	WarmStart bool
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
	warm  bool
	cache *emptyCache
	// scratch pools *reach.Scratch so concurrent evaluations reuse
	// frontier slices, dedup maps and occupancy grids instead of churning
	// the GC.
	scratch sync.Pool
}

// NewEvaluator returns an evaluator with the given reach-tube configuration
// and default Options.
func NewEvaluator(cfg reach.Config) (*Evaluator, error) {
	return NewEvaluatorOptions(cfg, Options{})
}

// NewEvaluatorOptions returns an evaluator with explicit options.
func NewEvaluatorOptions(cfg reach.Config, opts Options) (*Evaluator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{cfg: cfg, warm: opts.WarmStart, cache: newEmptyCache()}
	e.scratch.New = func() any { return reach.NewScratch() }
	return e, nil
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

// WarmStart reports whether EvaluateWarm calls may warm-start the shared
// expansion from a caller-held WarmState.
func (e *Evaluator) WarmStart() bool { return e.warm }

// Evaluate computes per-actor and combined STI for the ego at state ego on
// map m, given each actor's (predicted or ground-truth) trajectory.
// trajs[i] must correspond to actors[i].
func (e *Evaluator) Evaluate(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) Result {
	res, _ := e.evaluate(nil, m, ego, actors, trajs)
	return res
}

// EvaluateTraced is Evaluate with request-scoped tracing and risk
// provenance: spans land on the trace.Recorder carried by ctx (if any), and
// the returned Provenance reports which engine scored the scene, the
// empty-volume cache outcome and the certificate work skipped. With no
// recorder in ctx the result is identical to Evaluate.
func (e *Evaluator) EvaluateTraced(ctx context.Context, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) (Result, Provenance) {
	return e.evaluate(trace.FromContext(ctx), m, ego, actors, trajs)
}

// evaluate is the shared body of Evaluate and EvaluateTraced. rec may be
// nil (the common untraced path); every span call is nil-safe, so tracing
// costs the hot path one pointer check per call site.
func (e *Evaluator) evaluate(rec *trace.Recorder, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) (Result, Provenance) {
	defer telEvalSeconds.Start().Stop()
	telEvaluations.Inc()
	telActorsPerEval.Observe(float64(len(actors)))
	scr := e.takeScratch()
	defer e.putScratch(scr)
	switch len(actors) {
	case 0:
		sp := rec.StartSpan("reach.empty_tube")
		vol := reach.ComputeScratch(m, nil, ego, e.cfg, scr).Volume
		sp.End()
		return Result{BaseVolume: vol, EmptyVolume: vol}, Provenance{Engine: EngineEmpty, CacheState: CacheBypass}
	case 1:
		return e.evaluateSingle(rec, m, ego, actors, trajs, scr)
	}
	return e.evaluateShared(rec, m, ego, actors, trajs, scr, nil)
}

// evaluateSingle scores a one-actor scene with two tubes, one on a cache
// hit: removing the only actor leaves the empty world, so |T^{/0}| is the
// cached |T^∅| the combined ratio already uses, and the masked expansion
// would have nothing to share. The counterfactual tube is never computed,
// so the actor always counts as elided.
func (e *Evaluator) evaluateSingle(rec *trace.Recorder, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, scr *reach.Scratch) (Result, Provenance) {
	prov := Provenance{Engine: EngineSingle}
	obs := reach.BuildObstacles(actors, trajs, e.cfg)
	sp := rec.StartSpan("reach.empty_tube")
	emptyVol, cacheState := e.emptyVolumeState(m, ego, scr)
	sp.Annotate("cache_state", cacheState).End()
	prov.CacheState = cacheState
	// The base tube reports whether the actor ever blocked a footprint it
	// tested. If it never did, the deterministic expansion without it is
	// identical: T^{/0} = T exactly, whatever the cached |T^∅| says.
	sp = rec.StartSpan("reach.base_tube")
	base := reach.ComputeScratch(m, obs, ego, e.cfg, scr)
	sp.End()

	res := Result{
		PerActor:      make([]float64, 1),
		WithoutVolume: make([]float64, 1),
		BaseVolume:    base.Volume,
		EmptyVolume:   emptyVol,
	}
	if emptyVol <= 0 {
		// The ego has no escape routes even in an empty world (off-road or
		// wedged); actors cannot be responsible, so STI is defined as zero.
		return res, prov
	}
	res.Combined = snap(clamp01((emptyVol - base.Volume) / emptyVol))
	telElided.Inc()
	prov.ElidedActors = 1
	if res.Combined == 0 || !base.Blocked {
		// Dead-band certificate (see evaluateShared) or a never-blocking
		// actor: report |T| as the without-volume, STI zero.
		res.WithoutVolume[0] = base.Volume
		return res, prov
	}
	res.WithoutVolume[0] = emptyVol
	res.PerActor[0] = res.Combined
	return res, prov
}

// evaluateShared is Evaluate on the shared-expansion engine: one masked
// expansion (reach.ComputeCounterfactuals) yields |T| and every per-actor
// |T^{/i}| at once. The masks are segmented, so every actor in the scene
// is carried by that single expansion. The reporting conventions are those
// of the per-actor definition the differential suites check against: the
// cached |T^∅| backs every ratio, every per-actor value passes through the
// same snap(clamp01(·)) pipeline, and the dead-band certificate reports
// |T| for the without-volumes it skips.
func (e *Evaluator) evaluateShared(rec *trace.Recorder, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, scr *reach.Scratch, ws *reach.WarmState) (Result, Provenance) {
	defer telSharedSeconds.Start().Stop()
	prov := Provenance{Engine: EngineShared}
	obs := reach.BuildObstacles(actors, trajs, e.cfg)
	sp := rec.StartSpan("reach.empty_tube")
	emptyVol, cacheState := e.emptyVolumeState(m, ego, scr)
	sp.Annotate("cache_state", cacheState).End()
	prov.CacheState = cacheState
	// The span carries the expansion's shape, plus the warm-start outcome
	// on warm calls; perfbench's ledger and iprism-risktrace read it by
	// name. A nil ws is the cold expansion.
	sp = rec.StartSpan("reach.shared_expansion")
	sh, stats := reach.ComputeCounterfactualsWarm(m, obs, ego, e.cfg, scr, ws)
	if sp != nil {
		sp.Annotate("states", sh.States).
			Annotate("represented", sh.Represented).
			Annotate("mask_words", sh.MaskWords)
		if ws != nil {
			sp.Annotate("warm_hit", stats.Hit).
				Annotate("warm_reused", stats.Reused).
				Annotate("warm_invalidated", stats.Invalidated)
		}
		sp.End()
	}
	if ws != nil {
		prov.WarmHit = stats.Hit
		prov.WarmReused = stats.Reused
		prov.WarmInvalidated = stats.Invalidated
		noteWarmOutcome(stats.Hit)
	}
	telSharedMaskWords.Observe(float64(sh.MaskWords))
	prov.MaskWidth = sh.Represented
	prov.MaskWords = sh.MaskWords

	res := Result{
		PerActor:      make([]float64, len(actors)),
		WithoutVolume: make([]float64, len(actors)),
		BaseVolume:    sh.BaseVolume,
		EmptyVolume:   emptyVol,
	}
	if emptyVol <= 0 {
		// No escape routes even in an empty world; STI is defined as zero.
		return res, prov
	}
	res.Combined = snap(clamp01((emptyVol - sh.BaseVolume) / emptyVol))

	// Dead-band certificate: |T| ≤ |T^{/i}| ≤ |T^∅| (up to the dedup
	// jitter the dead band exists to absorb), so every per-actor ratio is
	// bounded by the combined ratio. A combined STI snapped to zero
	// certifies every per-actor STI snaps to zero too; |T| stands in for
	// the without-volumes (correct to within deadBand·|T^∅|).
	if res.Combined == 0 {
		telElided.Add(int64(len(actors)))
		prov.ElidedActors = len(actors)
		for i := range actors {
			res.WithoutVolume[i] = sh.BaseVolume
		}
		return res, prov
	}

	for i := range actors {
		wo := sh.WithoutVolume[i]
		res.WithoutVolume[i] = wo
		res.PerActor[i] = snap(clamp01((wo - sh.BaseVolume) / emptyVol))
	}
	return res, prov
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

// EvaluateCombined computes only STI^(combined), skipping the per-actor
// counterfactuals. This is the fast path used inside the SMC reward loop:
// one single-world expansion of the base tube, with no world bit per
// actor, plus the empty tube, which the cache usually serves.
func (e *Evaluator) EvaluateCombined(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) float64 {
	defer telCombinedSeconds.Start().Stop()
	telEvaluations.Inc()
	telActorsPerEval.Observe(float64(len(actors)))
	if len(actors) == 0 {
		return 0
	}
	scr := e.takeScratch()
	defer e.putScratch(scr)
	obs := reach.BuildObstacles(actors, trajs, e.cfg)
	emptyVol := e.emptyVolume(m, ego, scr)
	if emptyVol <= 0 {
		return 0
	}
	base := reach.ComputeScratch(m, obs, ego, e.cfg, scr)
	return snap(clamp01((emptyVol - base.Volume) / emptyVol))
}

func (e *Evaluator) takeScratch() *reach.Scratch { return e.scratch.Get().(*reach.Scratch) }
func (e *Evaluator) putScratch(s *reach.Scratch) { e.scratch.Put(s) }

// EvaluateWithPrediction is a convenience wrapper that forecasts every
// actor's trajectory with the CVTR model before evaluating STI — the
// configuration used online by the SMC (§IV-C).
func (e *Evaluator) EvaluateWithPrediction(m roadmap.Map, ego vehicle.State, actors []*actor.Actor) Result {
	trajs := actor.PredictAll(actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	return e.Evaluate(m, ego, actors, trajs)
}

// CombinedWithPrediction is EvaluateCombined with CVTR-predicted actor
// trajectories.
func (e *Evaluator) CombinedWithPrediction(m roadmap.Map, ego vehicle.State, actors []*actor.Actor) float64 {
	trajs := actor.PredictAll(actors, e.cfg.NumSlices(), e.cfg.SliceDt)
	return e.EvaluateCombined(m, ego, actors, trajs)
}

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
