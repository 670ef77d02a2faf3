package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that has at
// least ten of n samples beyond it, so a reported tail is never decided by
// a handful of outliers. ok is false when even the median has fewer than
// ten samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 100-p rounding
			return p, true
		}
	}
	return 0, false
}

// tail returns the percentile want of xs, lowered to tailPercentile when xs
// is too small to support it, together with the percentile actually used.
func tail(xs []float64, want float64) (value, used float64) {
	used = want
	if p, ok := tailPercentile(len(xs)); !ok {
		used = 50
	} else if p < want {
		used = p
	}
	return percentile(xs, used), used
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowedTail is tail computed per window of consecutive samples and
// reduced to the median over windows, so one burst of interference moves
// at most one window's figure. A window holds just enough samples to leave
// ten beyond the wanted percentile; fewer samples than one window fall back
// to tail over all of them. xs should be in the order the operations ran.
func windowedTail(xs []float64, want float64) (value, used float64) {
	ws := tailWindows(len(xs), want)
	if ws == nil {
		return tail(xs, want)
	}
	var per []float64
	for _, w := range ws {
		per = append(per, percentile(xs[w[0]:w[1]], want))
	}
	return median(per), want
}

// tailWindows splits n samples into the windows windowedTail uses, as
// [lo, hi) index pairs, or returns nil when there are fewer than two.
func tailWindows(n int, want float64) [][2]int {
	size := int(math.Ceil(10/(1-want/100) - 1e-9))
	if n < 2*size {
		return nil
	}
	var ws [][2]int
	for lo := 0; lo+size <= n; lo += size {
		hi := lo + size
		if n-hi < size {
			hi = n // the remainder joins the last window
		}
		ws = append(ws, [2]int{lo, hi})
	}
	return ws
}

// quietLatency is the median and the want-th percentile of xs taken over
// the quieter of windowedTail's windows: each window is scored by the share
// of CPU time the host stole while it ran (stolen over the times of its
// first and last sample), and the windows kept are those that lost no more
// than the median window, or no more than quietSteal; each figure is the
// median over the kept windows of that window's figure. share is the
// median stolen share of the kept windows. ok is false when xs is too
// short for two windows.
// quietSteal is the stolen share below which a window always counts as
// quiet.
const quietSteal = 0.01

func quietLatency(xs []float64, at []time.Time, want float64, stolen func(from, to time.Time) float64) (p50, tailv, share float64, ok bool) {
	ws := tailWindows(len(xs), want)
	if ws == nil {
		return 0, 0, 0, false
	}
	type scored struct {
		lo, hi int
		stolen float64
	}
	sc := make([]scored, len(ws))
	for i, w := range ws {
		sc[i] = scored{w[0], w[1], stolen(at[w[0]], at[w[1]-1])}
	}
	var all []float64
	for _, w := range sc {
		all = append(all, w.stolen)
	}
	limit := max(median(all), quietSteal)
	var meds, tails, shares []float64
	for _, w := range sc {
		if w.stolen > limit {
			continue
		}
		meds = append(meds, median(xs[w.lo:w.hi]))
		tails = append(tails, percentile(xs[w.lo:w.hi], want))
		shares = append(shares, w.stolen)
	}
	return median(meds), median(tails), median(shares), true
}
