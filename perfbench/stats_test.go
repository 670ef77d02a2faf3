package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailLowersPercentileForSmallSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, used := tail(xs, 99)
	if used != 90 {
		t.Fatalf("100 samples: used p%v, want p90", used)
	}
	if want := percentile(xs, 90); v != want {
		t.Errorf("tail value %v, want %v", v, want)
	}
	if _, used := tail(xs[:10], 99); used != 50 {
		t.Errorf("10 samples: used p%v, want the median", used)
	}
	big := make([]float64, 5000)
	if _, used := tail(big, 95); used != 95 {
		t.Errorf("tail never raises the wanted percentile, got p%v", used)
	}
}

func TestWindowedTailIsMedianOfWindows(t *testing.T) {
	// 3000 samples in three windows of 1000 for p99; one window carries a
	// burst of 40 huge values that would set the p99 of the whole run.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 1000)
	}
	for i := 1000; i < 1040; i++ {
		xs[i] = 1e6
	}
	v, used := windowedTail(xs, 99)
	if used != 99 {
		t.Fatalf("used p%v, want p99", used)
	}
	if want := percentile(xs[:1000], 99); v != want {
		t.Errorf("windowed p99 %v, want the undisturbed windows' %v", v, want)
	}
	if whole := percentile(xs, 99); whole != 1e6 {
		t.Fatalf("test setup: whole-run p99 %v should be the burst", whole)
	}
	// Below two windows it is the plain tail.
	if v, used := windowedTail(xs[:150], 90); used != 90 || v != percentile(xs[:150], 90) {
		t.Errorf("short input: %v at p%v", v, used)
	}
}

func TestQuietLatencyKeepsTheQuieterHalf(t *testing.T) {
	// Four windows of 200 samples (p95): the first two ran while the host
	// stole a third of the CPU time and read 10 ms, the last two 1 ms.
	t0 := time.Unix(0, 0)
	var xs []float64
	var at []time.Time
	for i := 0; i < 800; i++ {
		v := 1.0
		if i < 400 {
			v = 10
		}
		xs = append(xs, v)
		at = append(at, t0.Add(time.Duration(i)*time.Millisecond))
	}
	stolen := func(from, to time.Time) float64 {
		if from.Before(t0.Add(400 * time.Millisecond)) {
			return 1.0 / 3
		}
		return 0.01
	}
	p50, tl, share, ok := quietLatency(xs, at, 95, stolen)
	if !ok || p50 != 1 || tl != 1 || share != 0.01 {
		t.Fatalf("quietLatency = %v, %v, %v, %v; want 1, 1, 0.01, true", p50, tl, share, ok)
	}
	if _, _, _, ok := quietLatency(xs[:300], at[:300], 95, stolen); ok {
		t.Fatal("quietLatency over fewer than two windows: ok")
	}
}

func TestQuietLatencyKeepsEveryWindowOfAQuietRun(t *testing.T) {
	// Four windows of 200 samples reading 1, 2, 3 and 4 ms, none of them
	// disturbed: all count, whatever their order.
	t0 := time.Unix(0, 0)
	var xs []float64
	var at []time.Time
	for i := 0; i < 800; i++ {
		xs = append(xs, float64(i/200+1))
		at = append(at, t0.Add(time.Duration(i)*time.Millisecond))
	}
	p50, _, share, ok := quietLatency(xs, at, 95, func(time.Time, time.Time) float64 { return 0.004 })
	if !ok || p50 != 2.5 || share != 0.004 {
		t.Fatalf("quietLatency p50 %v, share %v, ok %v; want 2.5, 0.004, true", p50, share, ok)
	}
}
