package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/dataset"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/stats"
	"repro/internal/sti"
)

// Fig4Series is the mean±SD time series of one metric on one typology,
// split into safe and accident scenario populations (the two line styles of
// Fig. 4).
type Fig4Series struct {
	Typology scenario.Typology
	Metric   string // "STI", "PKL", "TTC"
	Safe     stats.Series
	Accident stats.Series
	// Dt is the time distance between consecutive series points.
	Dt float64
}

// Fig4 aggregates the risk characterisation traces for every typology and
// the plotted metrics, capping TTC and Dist. CIPA to plottable ranges.
func Fig4(ev *Evidence) []Fig4Series {
	var out []Fig4Series
	for _, suite := range ev.Suites {
		if len(suite.Scenarios) == 0 {
			continue // a validity filter can leave a small suite empty
		}
		safe := map[string][][]float64{}
		accident := map[string][][]float64{}
		for j, tr := range suite.Traces {
			dst := safe
			if suite.Outcomes[j].Collision {
				dst = accident
			}
			dst["STI"] = append(dst["STI"], tr.STI)
			dst["PKL"] = append(dst["PKL"], tr.PKLAll)
			// Cap +Inf for plottable series, as in Fig. 4's axes. The paper
			// computes Dist. CIPA too but omits its plot for space, noting
			// the trends are similar to TTC's; the CSV includes it.
			dst["TTC"] = append(dst["TTC"], capped(tr.TTC, 10))
			dst["CIPA"] = append(dst["CIPA"], capped(tr.CIPA, 60))
		}
		for _, name := range []string{"STI", "PKL", "TTC", "CIPA"} {
			out = append(out, Fig4Series{
				Typology: suite.Typology,
				Metric:   name,
				Safe:     stats.Aggregate(safe[name]),
				Accident: stats.Aggregate(accident[name]),
				Dt:       suite.Scenarios[0].Dt * float64(ev.opt.MetricStride),
			})
		}
	}
	return out
}

// capped returns a copy of xs with every value above max set to max.
func capped(xs []float64, max float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x > max {
			x = max
		}
		out[i] = x
	}
	return out
}

// Fig5Result holds the ghost cut-in STI traces with and without iPrism.
type Fig5Result struct {
	LBC    stats.Series
	IPrism stats.Series
	Dt     float64
}

// Fig5 re-runs a sample of ghost cut-in scenarios under LBC+iPrism and
// compares their combined STI traces with the recorded baseline's.
func Fig5(ev *Evidence, ctrl *smc.SMC, sample int) (Fig5Result, error) {
	var res Fig5Result
	suite, ok := findSuite(ev.Suites, scenario.GhostCutIn)
	if !ok || len(suite.Scenarios) == 0 {
		return res, fmt.Errorf("experiments: missing or empty ghost cut-in suite")
	}
	if sample <= 0 || sample > len(suite.Scenarios) {
		sample = len(suite.Scenarios)
	}
	var lbcTraces, iprismTraces [][]float64
	for i, scn := range suite.Scenarios[:sample] {
		lbcTraces = append(lbcTraces, suite.Traces[i].STI)
		w, err := scn.Build()
		if err != nil {
			return res, err
		}
		out := sim.Run(w, agent.NewLBC(agent.DefaultLBCConfig()), ctrl.CloneForRun(),
			sim.RunConfig{MaxSteps: scn.MaxSteps, RecordTrace: true})
		tr, err := ev.trace(scn, out.Trace)
		if err != nil {
			return res, err
		}
		iprismTraces = append(iprismTraces, tr.STI)
	}
	res.LBC = stats.Aggregate(lbcTraces)
	res.IPrism = stats.Aggregate(iprismTraces)
	res.Dt = suite.Scenarios[0].Dt * float64(ev.opt.MetricStride)
	return res, nil
}

// Fig6Result is the dataset STI characterisation (percentile rows).
type Fig6Result struct {
	Actor    dataset.PercentileRow
	Combined dataset.PercentileRow
	// ActorZeroFraction is the share of exactly-zero per-actor samples.
	ActorZeroFraction float64
	Samples           int
}

// Fig6 generates the synthetic real-world corpus and characterises its STI
// distribution.
func Fig6(corpus dataset.CorpusConfig, opt Options) (Fig6Result, error) {
	var res Fig6Result
	logs, err := dataset.GenerateCorpus(corpus)
	if err != nil {
		return res, err
	}
	// The corpus gets its own evaluator: the empty-tube cache keys on the
	// ego's pose alone, and the corpus road has three lanes where the
	// scenario suites' road has two.
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		return res, err
	}
	c := dataset.Characterize(logs, eval, opt.MetricStride*3)
	res.Actor = dataset.Row(c.ActorSTI)
	res.Combined = dataset.Row(c.CombinedSTI)
	res.ActorZeroFraction = dataset.ZeroFraction(c.ActorSTI)
	res.Samples = len(c.CombinedSTI)
	return res, nil
}

// Fig7Case is one evaluated case study.
type Fig7Case struct {
	Name     string
	PerActor []float64
	Combined float64
	KeyActor int
	KeySTI   float64
}

// Fig7 evaluates the four §V-D case studies, which lie on the scenario
// suites' road, so they can share the trace pass's evaluator.
func Fig7(eval *sti.Evaluator) []Fig7Case {
	var out []Fig7Case
	for _, c := range dataset.CaseStudies() {
		res := c.Evaluate(eval)
		out = append(out, Fig7Case{
			Name:     c.Name,
			PerActor: res.PerActor,
			Combined: res.Combined,
			KeyActor: c.KeyActor,
			KeySTI:   res.PerActor[c.KeyActor],
		})
	}
	return out
}

// SeparationResult quantifies the paper's §V-B takeaway (a): combined STI
// is statistically different between safe and accident scenarios.
type SeparationResult struct {
	Typology scenario.Typology
	// SafePeaks / AccidentPeaks are the per-episode mean combined STI:
	// peaks alone do not separate (a safe ghost cut-in also spikes while
	// the cutter swerves), but sustained risk does — accident episodes
	// climb to 1 and stay there.
	SafePeaks     []float64
	AccidentPeaks []float64
	// WelchT / DF / CohenD compare the two populations.
	WelchT float64
	DF     float64
	CohenD float64
}

// STISeparation computes, per typology with both safe and accident
// populations, the statistical separation of per-episode mean combined STI.
func STISeparation(ev *Evidence) []SeparationResult {
	var out []SeparationResult
	for _, suite := range ev.Suites {
		res := SeparationResult{Typology: suite.Typology}
		for j, tr := range suite.Traces {
			meanSTI := stats.Mean(tr.STI)
			if suite.Outcomes[j].Collision {
				res.AccidentPeaks = append(res.AccidentPeaks, meanSTI)
			} else {
				res.SafePeaks = append(res.SafePeaks, meanSTI)
			}
		}
		if len(res.SafePeaks) < 2 || len(res.AccidentPeaks) < 2 {
			continue // nothing to separate
		}
		res.WelchT, res.DF = stats.WelchT(res.AccidentPeaks, res.SafePeaks)
		res.CohenD = stats.CohenD(res.AccidentPeaks, res.SafePeaks)
		out = append(out, res)
	}
	return out
}
