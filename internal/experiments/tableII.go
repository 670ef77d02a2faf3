package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// MeanSD is a "mean (sd)" table cell.
type MeanSD struct {
	Mean, SD float64
}

// String renders the cell in the paper's format.
func (m MeanSD) String() string { return stats.FormatMeanSD(m.Mean, m.SD) }

// MetricNames lists the Table II rows in paper order.
var MetricNames = []string{"TTC", "Dist. CIPA", "PKL-All", "PKL-Holdout", "STI"}

// TableIIResult holds LTFMA statistics per metric per typology.
type TableIIResult struct {
	// Typologies are the columns (typologies in which the baseline had
	// accidents; front accident is excluded as in the paper).
	Typologies []scenario.Typology
	// LTFMA[metric][i] is the lead time for Typologies[i], in seconds.
	LTFMA map[string][]MeanSD
	// Average[metric] is the all-scenario average of the typology means.
	Average map[string]float64
}

// TableII computes the LTFMA comparison (§V-A) over the baseline suites:
// for every accident scenario, each metric's risk trace is binarised and
// the consecutive risky time immediately before the accident is averaged.
func TableII(ev *Evidence) TableIIResult {
	res := TableIIResult{
		LTFMA:   make(map[string][]MeanSD, len(MetricNames)),
		Average: make(map[string]float64, len(MetricNames)),
	}
	for _, suite := range ev.Suites {
		accidents := suite.Accidents()
		if len(accidents) == 0 {
			continue // front accident: nothing to lead-time
		}
		res.Typologies = append(res.Typologies, suite.Typology)
		perMetric := map[string][]float64{}
		for _, idx := range accidents {
			dt := suite.Scenarios[idx].Dt * float64(ev.opt.MetricStride)
			for name, v := range leadTimes(suite.Traces[idx], suite.Outcomes[idx].CollisionStep, ev.opt.MetricStride, dt) {
				perMetric[name] = append(perMetric[name], v)
			}
		}
		for _, name := range MetricNames {
			mean, sd := stats.MeanStd(perMetric[name])
			res.LTFMA[name] = append(res.LTFMA[name], MeanSD{Mean: mean, SD: sd})
		}
	}
	for _, name := range MetricNames {
		var means []float64
		for _, cell := range res.LTFMA[name] {
			means = append(means, cell.Mean)
		}
		res.Average[name] = stats.Mean(means)
	}
	return res
}

// leadTimes computes every metric's LTFMA for one accident trace sampled
// every stride steps, dt seconds apart.
func leadTimes(tr EpisodeTrace, collisionStep, stride int, dt float64) map[string]float64 {
	// The lead-time window ends at the last instant strictly before the
	// collision: at the contact step itself the ego is already colliding
	// and "warning" is meaningless.
	last := max(collisionStep-1, 0)
	n := min(last/stride+1, len(tr.STI))
	th := metrics.DefaultThresholds()
	lt := func(values []float64, risky func(float64) bool) float64 {
		risk := make([]bool, n)
		for k := range risk {
			risk[k] = risky(values[k])
		}
		return metrics.LTFMA(risk, n-1, dt)
	}
	return map[string]float64{
		"TTC":         lt(tr.TTC, th.TTCRisk),
		"Dist. CIPA":  lt(tr.CIPA, th.DistCIPARisk),
		"PKL-All":     lt(tr.PKLAll, th.PKLRisk),
		"PKL-Holdout": lt(tr.PKLHoldout, th.PKLRisk),
		"STI":         lt(tr.STI, th.STIRisk),
	}
}

// FitPKLModels fits the PKL cost model on baseline driving demonstrations:
// PKL-All on every typology, PKL-Holdout on all typologies except the two
// cut-ins (§V-A).
func FitPKLModels(suites []Suite, opt Options) (all, holdout *metrics.PKLModel, err error) {
	var allSamples, holdoutSamples []metrics.PKLSample
	const perSuite = 120
	for _, suite := range suites {
		count := 0
		for i := range suite.Scenarios {
			if count >= perSuite {
				break
			}
			tw, err := newTraceWorld(suite.Scenarios[i], suite.Outcomes[i].Trace)
			if err != nil {
				return nil, nil, err
			}
			for t := 0; t < tw.steps() && count < perSuite; t += opt.MetricStride * 5 {
				sc := tw.scene(t, opt.Reach.Horizon)
				sample := metrics.PKLSample{
					Features: metrics.CandidateFeatures(sc, -1, false),
					Choice:   demonstratedChoice(tw, t),
				}
				allSamples = append(allSamples, sample)
				if suite.Typology != scenario.GhostCutIn && suite.Typology != scenario.LeadCutIn {
					holdoutSamples = append(holdoutSamples, sample)
				}
				count++
			}
		}
	}
	all = metrics.DefaultPKLModel()
	holdout = metrics.DefaultPKLModel()
	if len(allSamples) == 0 {
		return nil, nil, fmt.Errorf("experiments: no PKL demonstrations collected")
	}
	if _, err := all.Fit(allSamples, 60, 0.1); err != nil {
		return nil, nil, err
	}
	if len(holdoutSamples) > 0 {
		if _, err := holdout.Fit(holdoutSamples, 60, 0.1); err != nil {
			return nil, nil, err
		}
	}
	return all, holdout, nil
}

// demonstratedChoice maps the baseline agent's recorded control at step t
// to the nearest candidate manoeuvre index (the demonstrator never changes
// lanes, so the lateral component is always "keep").
func demonstratedChoice(tw *traceWorld, t int) int {
	accel := tw.trace[t].EgoControl.Accel
	// Candidate longitudinal profiles: {MaxBrake/2, 0, MaxAccel/2}.
	longIdx := 1
	switch {
	case accel < -1:
		longIdx = 0
	case accel > 1:
		longIdx = 2
	}
	const latKeep = 1
	return longIdx*3 + latKeep
}
