package rl

// Transition is one experience tuple (S_t, a_t, r_t, S_{t+1}, done).
type Transition struct {
	State  []float64
	Action int
	Reward float64
	Next   []float64
	Done   bool
}

// Replay is a fixed-capacity ring buffer of transitions; the learner
// samples it uniformly with replacement.
type Replay struct {
	buf  []Transition // grows to size, then wraps
	size int
	next int
	full bool
}

// NewReplay creates a buffer holding up to capacity transitions. Storage
// grows as transitions arrive, so a short run does not pay for the whole
// ring.
func NewReplay(capacity int) *Replay {
	return &Replay{size: max(capacity, 1)}
}

// Add stores a transition, evicting the oldest when full, and returns the
// slot it wrote. The buffer keeps t's slices, so the caller must not modify
// them afterwards.
func (r *Replay) Add(t Transition) int {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, t)
		return len(r.buf) - 1
	}
	r.full = true
	slot := r.next
	r.buf[slot] = t
	r.next = (r.next + 1) % r.size
	return slot
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.buf) }
