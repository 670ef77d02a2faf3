package main

import (
	"sync"
	"time"
)

// clock abstracts time so the open-loop scheduler can be driven by a fake
// clock in tests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// plannedOp is one open-loop operation: the stream it belongs to (a
// vehicle session), its index within the stream, and when it is due,
// relative to the start of the schedule.
type plannedOp struct {
	Stream int
	Seq    int
	Due    time.Duration
}

// opTiming is what the scheduler observed for one operation. Latency is
// measured from the due time, so a stalled sender charges its delay to
// every operation queued behind it; Lateness is how late the send began.
type opTiming struct {
	Op       plannedOp
	Sent     time.Time
	Done     time.Time
	Lateness time.Duration
	Latency  time.Duration
	Err      error
}

// runOpenLoop sends ops (sorted by Due) on schedule from start with a fixed
// pool of sender goroutines. Each sender takes the next due operation,
// waits for its due time and for the previous operation of the same stream
// to finish (a stream's operations must reach the server in order), then
// calls send. It returns once every operation has completed, timings
// index-aligned with ops.
func runOpenLoop(clk clock, start time.Time, ops []plannedOp, senders int, send func(op plannedOp) error) []opTiming {
	out := make([]opTiming, len(ops))
	// prev[i] is closed when the stream predecessor of ops[i] completes;
	// done[i] when ops[i] completes.
	prev := make([]chan struct{}, len(ops))
	done := make([]chan struct{}, len(ops))
	last := map[int]chan struct{}{}
	for i, op := range ops {
		done[i] = make(chan struct{})
		prev[i] = last[op.Stream]
		last[op.Stream] = done[i]
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ops) {
					return
				}
				op := ops[i]
				due := start.Add(op.Due)
				clk.SleepUntil(due)
				if prev[i] != nil {
					<-prev[i]
				}
				t := opTiming{Op: op, Sent: clk.Now()}
				t.Err = send(op)
				t.Done = clk.Now()
				t.Lateness = t.Sent.Sub(due)
				t.Latency = t.Done.Sub(due)
				out[i] = t
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return out
}
