package dataset

import (
	"context"
	"repro/internal/stats"
	"repro/internal/sti"
)

// Characterization aggregates the STI values observed across a corpus —
// the data behind Fig. 6.
type Characterization struct {
	// ActorSTI collects every per-actor STI sample.
	ActorSTI []float64
	// CombinedSTI collects the combined STI at every sampled step.
	CombinedSTI []float64
}

// Characterize evaluates STI over the corpus, sampling every stride-th step
// of each log and using the recorded ground-truth future trajectories.
func Characterize(logs []*Log, eval *sti.Evaluator, stride int) Characterization {
	if stride < 1 {
		stride = 1
	}
	var c Characterization
	for _, l := range logs {
		if l.Dt <= 0 {
			continue
		}
		// Skip the tail where the recorded future no longer covers the
		// reach-tube horizon.
		horizonSteps := int(eval.Config().Horizon / l.Dt)
		last := l.Steps() - horizonSteps - 1
		for t := 0; t < last; t += stride {
			actors := l.ActorsAt(t)
			trajs := l.FutureTrajectories(t)
			res, _ := eval.Score(context.Background(), sti.Query{Map: l.Map, Ego: l.Ego[t], Actors: actors, Trajs: trajs}, nil)
			c.ActorSTI = append(c.ActorSTI, res.PerActor...)
			c.CombinedSTI = append(c.CombinedSTI, res.Combined)
		}
	}
	return c
}

// PercentileRow reports the p50/p75/p90/p99 row of Fig. 6 for a sample set.
type PercentileRow struct {
	P50, P75, P90, P99 float64
}

// Row computes the Fig. 6 percentile row.
func Row(samples []float64) PercentileRow {
	ps := stats.Percentiles(samples, 50, 75, 90, 99)
	return PercentileRow{P50: ps[0], P75: ps[1], P90: ps[2], P99: ps[3]}
}

// ZeroFraction returns the fraction of samples that are exactly zero.
func ZeroFraction(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	zero := 0
	for _, v := range samples {
		if v == 0 {
			zero++
		}
	}
	return float64(zero) / float64(len(samples))
}
