package sti

import (
	"sync/atomic"

	"repro/internal/reach"
)

// WarmState carries the previous tick's shared-expansion state for one
// session stream. It is owned by exactly one caller at a time: Score
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
// no Score may be in flight on it.
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
// warm-capable evaluations (Score with a usable WarmState and a
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

// release records the state's retained bytes and hands ownership back.
// Score defers it after winning the ownership CAS.
func (w *WarmState) release() {
	w.bytes.Store(w.rs.Bytes())
	w.busy.Store(false)
}
