package sti

import (
	"context"
	"sync/atomic"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/telemetry/trace"
	"repro/internal/vehicle"
)

// WarmState carries the previous tick's shared-expansion state for one
// session stream. It is owned by exactly one caller at a time: EvaluateWarm
// claims it with a compare-and-swap for the duration of the call, and a
// concurrent call that loses the race scores cold rather than share the
// state (sharing would interleave two ticks' bookkeeping and corrupt the
// memo). The zero value is not usable — construct with NewWarmState.
type WarmState struct {
	busy  atomic.Bool
	bytes atomic.Int64 // rs.Bytes() as of the last warm evaluation
	rs    reach.WarmState
}

// NewWarmState returns a fresh warm-start state ready for its first tick
// (which always scores cold and seeds the memo).
func NewWarmState() *WarmState { return &WarmState{} }

// Reset drops all retained expansion state, returning the WarmState to its
// just-constructed condition. The caller must own the state exclusively —
// no EvaluateWarm may be in flight on it.
func (w *WarmState) Reset() { w.rs.Reset() }

// Bytes returns the capacity in bytes of the state's memo arenas and
// tables as of its last warm evaluation: the memory it retains between
// ticks (Reset keeps capacity, so it does not lower this). It is safe to
// call while an evaluation is in flight on the state.
func (w *WarmState) Bytes() int64 { return w.bytes.Load() }

// TryReset is Reset under the ownership gate: it claims the state, drops
// the retained expansion, and reports success. It fails (and does nothing)
// when an evaluation is mid-flight on the state — the caller recycling
// pooled states should then abandon this one to the garbage collector
// rather than wait, since the in-flight evaluation still holds it.
func (w *WarmState) TryReset() bool {
	if !w.busy.CompareAndSwap(false, true) {
		return false
	}
	w.rs.Reset()
	w.busy.Store(false)
	return true
}

// warmHits/warmTotal feed the sti.warm.hit_ratio gauge: the fraction of
// warm-capable evaluations (EvaluateWarm with a usable WarmState and a
// multi-actor scene) whose previous-tick state actually validated.
var (
	warmHits  atomic.Int64
	warmTotal atomic.Int64
)

func noteWarmOutcome(hit bool) {
	if hit {
		warmHits.Add(1)
	}
	t := warmTotal.Add(1)
	telWarmHitRatio.Set(float64(warmHits.Load()) / float64(t))
}

// EvaluateWarm is Evaluate with temporal coherence: ws retains the previous
// tick's expansion state, and path-sweep verdicts that provably cannot have
// changed since that tick are reused instead of recomputed. The Result is
// bitwise-identical to Evaluate on the same scene — warm start substitutes
// memoised values only where exact revalidation proves them unchanged
// (see reach.ComputeCounterfactualsWarm). A nil ws, or a scene of fewer
// than two actors, degrades to a plain cold evaluation.
func (e *Evaluator) EvaluateWarm(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, ws *WarmState) (Result, Provenance) {
	return e.evaluateWarm(nil, m, ego, actors, trajs, ws)
}

// EvaluateWarmTraced is EvaluateWarm with request-scoped tracing, the warm
// analogue of EvaluateTraced.
func (e *Evaluator) EvaluateWarmTraced(ctx context.Context, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, ws *WarmState) (Result, Provenance) {
	return e.evaluateWarm(trace.FromContext(ctx), m, ego, actors, trajs, ws)
}

func (e *Evaluator) evaluateWarm(rec *trace.Recorder, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, ws *WarmState) (Result, Provenance) {
	// Warm start only exists for the shared engine on multi-actor scenes;
	// everything else is a plain evaluation.
	if ws == nil || len(actors) <= 1 {
		return e.evaluate(rec, m, ego, actors, trajs)
	}
	// Single-owner gate: a WarmState must never be mutated by two
	// evaluations at once. Losing the CAS means another call is mid-tick on
	// this state — score cold rather than block the request path.
	if !ws.busy.CompareAndSwap(false, true) {
		return e.evaluate(rec, m, ego, actors, trajs)
	}
	defer ws.busy.Store(false)

	defer telEvalSeconds.Start().Stop()
	telEvaluations.Inc()
	telActorsPerEval.Observe(float64(len(actors)))
	scr := e.takeScratch()
	defer e.putScratch(scr)
	res, prov := e.evaluateShared(rec, m, ego, actors, trajs, scr, &ws.rs)
	ws.bytes.Store(ws.rs.Bytes())
	return res, prov
}
