package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manual clock: SleepUntil jumps straight to the target.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.Now()
	ops := []plannedOp{
		{Stream: 0, Seq: 0, Due: 0},
		{Stream: 1, Seq: 0, Due: 10 * time.Millisecond},
		{Stream: 2, Seq: 0, Due: 20 * time.Millisecond},
		{Stream: 0, Seq: 1, Due: 100 * time.Millisecond},
	}
	service := map[int]time.Duration{0: 25 * time.Millisecond}
	got := runOpenLoop(clk, start, ops, 1, func(op plannedOp) error {
		d, ok := service[op.Stream*10+op.Seq]
		if !ok {
			d = time.Millisecond
		}
		clk.advance(d)
		return nil
	})
	// The first op stalls the only sender for 25 ms; the two queued behind
	// it are charged that stall from their due times.
	want := []struct{ late, lat time.Duration }{
		{0, 25 * time.Millisecond},
		{15 * time.Millisecond, 16 * time.Millisecond},
		{6 * time.Millisecond, 7 * time.Millisecond},
		{0, time.Millisecond},
	}
	for i, w := range want {
		if got[i].Lateness != w.late || got[i].Latency != w.lat {
			t.Errorf("op %d: lateness %v latency %v, want %v and %v", i, got[i].Lateness, got[i].Latency, w.late, w.lat)
		}
		if got[i].Op != ops[i] {
			t.Errorf("op %d: timing for %+v, want %+v", i, got[i].Op, ops[i])
		}
	}
}

func TestOpenLoopKeepsStreamOrder(t *testing.T) {
	// One stream's ops are all due at once; two senders must still send
	// them one after another, in order.
	var ops []plannedOp
	for i := 0; i < 6; i++ {
		ops = append(ops, plannedOp{Stream: 7, Seq: i})
	}
	var mu sync.Mutex
	var order []int
	inFlight := 0
	got := runOpenLoop(realClock{}, time.Now(), ops, 2, func(op plannedOp) error {
		mu.Lock()
		inFlight++
		if inFlight > 1 {
			t.Errorf("op %d sent while its stream had another in flight", op.Seq)
		}
		order = append(order, op.Seq)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	})
	for i, s := range order {
		if s != i {
			t.Fatalf("send order %v, want 0..5", order)
		}
	}
	if got[5].Latency < 10*time.Millisecond {
		t.Errorf("last op latency %v; it waited behind five 2 ms sends from its due time", got[5].Latency)
	}
}
