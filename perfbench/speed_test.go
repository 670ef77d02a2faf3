package main

import (
	"math"
	"testing"
	"time"
)

func TestScaleOutcome(t *testing.T) {
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// A machine at half the reference speed with a fifth of its CPU time
	// stolen: CPU timings halve, wall-clock timings shrink to 0.4.
	o := &outcome{latP50: 2, latTail: 5, cpuPerOp: 1, goodput: 100, setup: 0.5, rss: 30}
	o.scale(0.5, 0.2, 0.2)
	near("latP50", o.latP50, 0.8)
	near("latTail", o.latTail, 2)
	near("cpuPerOp", o.cpuPerOp, 0.5)
	near("setup", o.setup, 0.2)
	near("goodput", o.goodput, 250)
	near("rss", o.rss, 30)

	// An open loop's goodput is the offered load, whatever the speed.
	o = &outcome{goodput: 100, offeredLoad: true}
	o.scale(0.5, 0.2, 0.2)
	near("offered goodput", o.goodput, 100)

	// Latencies follow the share stolen in the windows they were taken
	// from; the rest follow the share over the whole measurement.
	o = &outcome{latP50: 2, setup: 1}
	o.scale(1, 0.5, 0.1)
	near("latP50 (quiet windows)", o.latP50, 1.8)
	near("setup", o.setup, 0.5)
}

func TestSpeedProbeRunsAndStops(t *testing.T) {
	p := startSpeedProbe()
	time.Sleep(5*probePeriod + probePeriod/2)
	chunks := p.stop()
	if len(chunks) < 3 || len(chunks) > 6 {
		t.Fatalf("%d chunks in 5.5 periods", len(chunks))
	}
	for _, c := range chunks {
		if !(c > 0) {
			t.Fatalf("chunk CPU time %v ms", c)
		}
	}
}

func TestMachineCPU(t *testing.T) {
	busy, steal, err := machineCPU()
	if err != nil {
		t.Fatal(err)
	}
	if !(busy > 0) || steal < 0 {
		t.Fatalf("busy %v s, steal %v s", busy, steal)
	}
}

func TestProbeStolenBetweenSamples(t *testing.T) {
	t0 := time.Unix(0, 0)
	p := &speedProbe{samples: []cpuSample{
		{t0, 0, 0},
		{t0.Add(time.Second), 1.5, 0.5},
		{t0.Add(2 * time.Second), 3.5, 0.5},
	}}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("first second", p.stolen(t0, t0.Add(time.Second)), 0.25)
	near("second second", p.stolen(t0.Add(time.Second), t0.Add(2*time.Second)), 0)
	near("inside the first second", p.stolen(t0.Add(100*time.Millisecond), t0.Add(900*time.Millisecond)), 0.25)
	near("whole run", p.stolen(t0.Add(-time.Second), t0.Add(3*time.Second)), 0.5/4)
}
