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
	"runtime"
	"sync"
	"sync/atomic"

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
	// telParallelWorkers records the fan-out width of the latest Evaluate;
	// telActorTubeSeconds the per-counterfactual tube latency each worker
	// observes (serial path included, so the histogram is always populated).
	telParallelWorkers  = telemetry.NewGauge("sti.parallel.workers")
	telActorTubeSeconds = telemetry.NewHistogram("sti.actor_tube.seconds", telemetry.LatencyBuckets())
	// telElided counts per-actor counterfactual tubes skipped because the
	// actor provably could not change the base tube (never an exclusive
	// blocker, sole actor, or dead-band certificate).
	telElided = telemetry.NewCounter("sti.counterfactuals.elided")
	// Shared-expansion path (Options.SharedExpansion): evaluation latency,
	// how many actors each evaluation carried as explicit world-mask bits,
	// and how many mask words the expansion needed (1 = single-word fast
	// path).
	telSharedSeconds   = telemetry.NewHistogram("sti.shared_expansion.seconds", telemetry.LatencyBuckets())
	telSharedEvals     = telemetry.NewCounter("sti.shared_expansion.evals")
	telSharedMaskWidth = telemetry.NewHistogram("sti.shared_expansion.mask_width", telemetry.LinearBuckets(0, 8, 18))
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
	// Workers bounds the goroutines fanning the per-actor counterfactual
	// tubes of Evaluate out. 0 (the default) resolves to
	// runtime.GOMAXPROCS(0); 1 forces the serial path. Results are
	// bitwise-identical at every setting — each counterfactual is an
	// independent deterministic computation written to its own index — so
	// the knob trades only CPU against latency. Callers that already run
	// episodes on their own worker pool (experiment suites, SMC training)
	// should pass 1 to avoid oversubscription.
	Workers int

	// SharedExpansion selects the shared-expansion counterfactual engine
	// (reach.ComputeCounterfactuals): the base tube |T| and every per-actor
	// tube |T^{/i}| are derived from ONE masked expansion instead of up to
	// N+1 independent ones, making Evaluate ~O(1) in the number of actors.
	// Results are bitwise-identical to the legacy path — each world's
	// expansion order, ε-dedup, pruning and MaxStates cut-off are replayed
	// exactly through per-state world masks (DESIGN.md §8) — so the knob
	// trades nothing but memory locality for a superlinear speedup on
	// multi-actor scenes. Masks are segmented (ceil((1+N)/64) words), so
	// every actor in the scene is carried by the one expansion; scenes of
	// at most 63 actors need one word.
	SharedExpansion bool

	// WarmStart arms the temporal-coherence warm start for the shared
	// engine: EvaluateWarm calls holding a *WarmState reuse the previous
	// tick's path-sweep verdicts where provably unchanged
	// (reach.ComputeCounterfactualsWarm), with results bitwise-identical
	// to the cold path. It only affects EvaluateWarm/EvaluateWarmTraced —
	// the stateless Evaluate entry points have no previous tick to warm
	// from — and requires SharedExpansion (single-actor scenes and the
	// legacy engine always score cold).
	WarmStart bool
}

// Evaluator computes STI for scenes. It is stateless apart from
// configuration, the empty-world volume cache and pooled scratch memory,
// and is safe for concurrent use.
type Evaluator struct {
	cfg     reach.Config
	workers int
	shared  bool
	warm    bool
	cache   *emptyCache
	// scratch pools *reach.Scratch so the N+2 tube computations per
	// evaluation reuse frontier slices, dedup maps and occupancy grids
	// instead of churning the GC (one scratch per concurrent worker).
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
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Evaluator{cfg: cfg, workers: workers, shared: opts.SharedExpansion, warm: opts.WarmStart && opts.SharedExpansion, cache: newEmptyCache()}
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

// Workers returns the resolved counterfactual fan-out bound.
func (e *Evaluator) Workers() int { return e.workers }

// SharedExpansion reports whether the evaluator uses the shared-expansion
// counterfactual engine.
func (e *Evaluator) SharedExpansion() bool { return e.shared }

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
	if len(actors) == 0 {
		sp := rec.StartSpan("reach.empty_tube")
		vol := reach.ComputeScratch(m, nil, ego, e.cfg, scr).Volume
		sp.End()
		return Result{BaseVolume: vol, EmptyVolume: vol}, Provenance{Engine: EngineEmpty, CacheState: CacheBypass}
	}
	// Single-actor scenes stay on the legacy path even under
	// SharedExpansion: |T^{/0}| = |T^∅| comes from the empty-volume cache,
	// so the legacy path is already two tubes (one on a cache hit) and the
	// masked expansion has nothing to share.
	if e.shared && len(actors) > 1 {
		return e.evaluateShared(rec, m, ego, actors, trajs, scr, nil)
	}
	prov := Provenance{Engine: EngineLegacy}
	obs := reach.BuildObstacles(actors, trajs, e.cfg)

	sp := rec.StartSpan("reach.empty_tube")
	emptyVol, cacheState := e.emptyVolumeState(m, ego, scr)
	sp.Annotate("cache_state", cacheState).End()
	prov.CacheState = cacheState
	// The base tube records which actors ever exclusively blocked a
	// candidate footprint. An unmarked actor never changed a collision
	// verdict on its own, so the deterministic expansion without it is
	// identical: T^{/i} = T exactly, and its counterfactual tube can be
	// skipped (the dominant cost on sparse scenes, where most actors never
	// touch the tube).
	marks := make([]bool, len(actors))
	sp = rec.StartSpan("reach.base_tube")
	base := reach.ComputeScratch(m, obs.CollideRecording(marks), ego, e.cfg, scr)
	sp.End()

	res := Result{
		PerActor:      make([]float64, len(actors)),
		WithoutVolume: make([]float64, len(actors)),
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
	// certifies every per-actor STI snaps to zero too — report |T| for the
	// without-volumes (correct to within deadBand·|T^∅|) and skip all N
	// counterfactual tubes.
	if res.Combined == 0 {
		telElided.Add(int64(len(actors)))
		prov.ElidedActors += len(actors)
		for i := range actors {
			res.WithoutVolume[i] = base.Volume
		}
		return res, prov
	}

	// work collects the actors whose counterfactual actually needs a tube.
	work := make([]int, 0, len(actors))
	for i := range actors {
		switch {
		case !marks[i]:
			// Never an exclusive blocker: T^{/i} = T, STI exactly zero.
			res.WithoutVolume[i] = base.Volume
		case len(actors) == 1:
			// Removing the only actor leaves the empty world: T^{/i} = T^∅,
			// with the same cached |T^∅| the combined ratio uses.
			res.WithoutVolume[i] = emptyVol
			res.PerActor[i] = res.Combined
		default:
			work = append(work, i)
		}
	}
	// Elision accounting is additive on purpose: a single evaluation can
	// elide in more than one place (dead-band certificate above, the marks
	// pass here), and Provenance must agree with the telElided counter
	// delta rather than reporting only the last writer.
	telElided.Add(int64(len(actors) - len(work)))
	prov.ElidedActors += len(actors) - len(work)
	if len(work) == 0 {
		return res, prov
	}

	// Fan the remaining independent |T^{/i}| counterfactuals out over a
	// bounded worker pool. Each index is claimed atomically and written to
	// its own slot of the pre-sized result slices, so the output is
	// identical to the serial loop regardless of scheduling.
	sp = rec.StartSpan("reach.counterfactual_tubes")
	e.fanOut(work, scr, func(i int, ws *reach.Scratch) {
		t := telActorTubeSeconds.Start()
		wo := reach.ComputeScratch(m, obs.CollideWithout(i), ego, e.cfg, ws)
		t.Stop()
		res.WithoutVolume[i] = wo.Volume
		res.PerActor[i] = snap(clamp01((wo.Volume - base.Volume) / emptyVol))
	})
	sp.Annotate("tubes", len(work)).End()
	return res, prov
}

// fanOut runs fn(i, scratch) for every index in work over the evaluator's
// bounded worker pool, serially (reusing the caller's scratch) when the
// bound or the workload is 1. fn must confine its writes to index-owned
// slots; the output is then identical regardless of scheduling.
func (e *Evaluator) fanOut(work []int, scr *reach.Scratch, fn func(i int, ws *reach.Scratch)) {
	workers := e.workers
	if workers > len(work) {
		workers = len(work)
	}
	telParallelWorkers.Set(float64(workers))
	if workers <= 1 {
		for _, i := range work {
			fn(i, scr)
		}
		return
	}
	var nextIdx atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ws := e.takeScratch()
			defer e.putScratch(ws)
			for {
				k := int(nextIdx.Add(1)) - 1
				if k >= len(work) {
					return
				}
				fn(work[k], ws)
			}
		}()
	}
	wg.Wait()
}

// evaluateShared is Evaluate on the shared-expansion engine: one masked
// expansion (reach.ComputeCounterfactuals) yields |T| and every per-actor
// |T^{/i}| at once. The masks are segmented, so every actor in the scene —
// not just the first 63 — is carried by that single expansion; the
// spillover fan-out the old single-word engine needed is gone. The
// observable Result is bitwise-identical to the legacy path, including its
// reporting conventions: the cached |T^∅| backs every ratio, every
// per-actor value passes through the same snap(clamp01(·)) pipeline, and
// the dead-band certificate reports |T| for the without-volumes it skips.
func (e *Evaluator) evaluateShared(rec *trace.Recorder, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, scr *reach.Scratch, ws *reach.WarmState) (Result, Provenance) {
	defer telSharedSeconds.Start().Stop()
	telSharedEvals.Inc()
	prov := Provenance{Engine: EngineShared}
	obs := reach.BuildObstacles(actors, trajs, e.cfg)
	sp := rec.StartSpan("reach.empty_tube")
	emptyVol, cacheState := e.emptyVolumeState(m, ego, scr)
	sp.Annotate("cache_state", cacheState).End()
	prov.CacheState = cacheState
	var sh reach.SharedTubes
	if ws != nil {
		var stats reach.WarmStats
		sh, stats = reach.ComputeCounterfactualsWarmTraced(rec, m, obs, ego, e.cfg, scr, ws)
		prov.WarmHit = stats.Hit
		prov.WarmReused = stats.Reused
		prov.WarmInvalidated = stats.Invalidated
		noteWarmOutcome(stats.Hit)
	} else {
		sh = reach.ComputeCounterfactualsTraced(rec, m, obs, ego, e.cfg, scr)
	}
	telSharedMaskWidth.Observe(float64(sh.Represented))
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

	// Dead-band certificate (see Evaluate): a combined STI snapped to zero
	// certifies every per-actor STI snaps to zero. Match the legacy
	// reporting exactly — |T| stands in for the without-volumes.
	if res.Combined == 0 {
		telElided.Add(int64(len(actors)))
		prov.ElidedActors += len(actors)
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
// counterfactuals. This is the fast path used inside the SMC reward loop,
// costing two reach-tube computations instead of N+2.
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
	base := reach.ComputeScratch(m, obs.Collide(), ego, e.cfg, scr)
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
