package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/dataset"
	"repro/internal/metrics"
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

// Fig4 computes the risk characterisation traces for every typology and
// the three plotted metrics.
func Fig4(suites []Suite, opt Options) ([]Fig4Series, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		return nil, err
	}
	pklAll, _, err := FitPKLModels(suites, opt)
	if err != nil {
		return nil, err
	}
	var out []Fig4Series
	for _, suite := range suites {
		if len(suite.Scenarios) == 0 {
			continue // a validity filter can leave a small suite empty
		}
		safe := map[string][][]float64{}
		accident := map[string][][]float64{}
		for i := range suite.Scenarios {
			tw, err := newTraceWorld(suite.Scenarios[i], suite.Outcomes[i].Trace)
			if err != nil {
				return nil, err
			}
			traces := metricTraces(tw, opt, eval, pklAll)
			dst := safe
			if suite.Outcomes[i].Collision {
				dst = accident
			}
			for name, tr := range traces {
				dst[name] = append(dst[name], tr)
			}
		}
		for _, name := range []string{"STI", "PKL", "TTC", "CIPA"} {
			out = append(out, Fig4Series{
				Typology: suite.Typology,
				Metric:   name,
				Safe:     stats.Aggregate(safe[name]),
				Accident: stats.Aggregate(accident[name]),
				Dt:       suite.Scenarios[0].Dt * float64(opt.MetricStride),
			})
		}
	}
	return out, nil
}

// metricTraces computes the STI/PKL/TTC traces of one episode.
func metricTraces(tw *traceWorld, opt Options, eval *sti.Evaluator, pkl *metrics.PKLModel) map[string][]float64 {
	out := map[string][]float64{}
	for t := 0; t < tw.steps(); t += opt.MetricStride {
		sc := tw.scene(t, opt.Reach.Horizon)
		out["STI"] = append(out["STI"], eval.Combined(sti.Query{Map: tw.m, Ego: sc.Ego, Actors: sc.Actors, Trajs: sc.Trajs}))
		out["PKL"] = append(out["PKL"], pkl.PKLCombined(sc))
		ttc := metrics.TTC(sc)
		if ttc > 10 {
			ttc = 10 // cap +Inf for plottable series, as in Fig. 4's axes
		}
		out["TTC"] = append(out["TTC"], ttc)
		// The paper computes Dist. CIPA too but omits its plot for space,
		// noting the trends are similar to TTC's; the CSV includes it.
		cipa := metrics.DistCIPA(sc)
		if cipa > 60 {
			cipa = 60
		}
		out["CIPA"] = append(out["CIPA"], cipa)
	}
	return out
}

// Fig5Result holds the ghost cut-in STI traces with and without iPrism.
type Fig5Result struct {
	LBC    stats.Series
	IPrism stats.Series
	Dt     float64
}

// Fig5 re-runs a sample of ghost cut-in scenarios under the bare baseline
// and under LBC+iPrism, recording combined STI traces for both.
func Fig5(suites []Suite, ctrl *smc.SMC, opt Options, sample int) (Fig5Result, error) {
	var res Fig5Result
	suite, ok := findSuite(suites, scenario.GhostCutIn)
	if !ok || len(suite.Scenarios) == 0 {
		return res, fmt.Errorf("experiments: missing or empty ghost cut-in suite")
	}
	if err := opt.Validate(); err != nil {
		return res, err
	}
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		return res, err
	}
	if sample <= 0 || sample > len(suite.Scenarios) {
		sample = len(suite.Scenarios)
	}
	var lbcTraces, iprismTraces [][]float64
	for i := 0; i < sample; i++ {
		scn := suite.Scenarios[i]
		// Baseline traces come from the recorded suite run.
		tw, err := newTraceWorld(scn, suite.Outcomes[i].Trace)
		if err != nil {
			return res, err
		}
		lbcTraces = append(lbcTraces, stiTrace(tw, opt, eval))

		// Mitigated run.
		w, err := scn.Build()
		if err != nil {
			return res, err
		}
		out := sim.Run(w, agent.NewLBC(agent.DefaultLBCConfig()), ctrl.CloneForRun(),
			sim.RunConfig{MaxSteps: scn.MaxSteps, RecordTrace: true})
		tw2, err := newTraceWorld(scn, out.Trace)
		if err != nil {
			return res, err
		}
		iprismTraces = append(iprismTraces, stiTrace(tw2, opt, eval))
	}
	res.LBC = stats.Aggregate(lbcTraces)
	res.IPrism = stats.Aggregate(iprismTraces)
	res.Dt = suite.Scenarios[0].Dt * float64(opt.MetricStride)
	return res, nil
}

func stiTrace(tw *traceWorld, opt Options, eval *sti.Evaluator) []float64 {
	var out []float64
	for t := 0; t < tw.steps(); t += opt.MetricStride {
		out = append(out, eval.Combined(sti.Query{Map: tw.m, Ego: tw.ego(t), Actors: tw.actors(t), Trajs: tw.futures(t)}))
	}
	return out
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

// Fig7 evaluates the four §V-D case studies.
func Fig7(opt Options) ([]Fig7Case, error) {
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		return nil, err
	}
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
	return out, nil
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
// populations, the statistical separation of peak combined STI.
func STISeparation(suites []Suite, opt Options) ([]SeparationResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		return nil, err
	}
	var out []SeparationResult
	for _, suite := range suites {
		res := SeparationResult{Typology: suite.Typology}
		for i := range suite.Scenarios {
			tw, err := newTraceWorld(suite.Scenarios[i], suite.Outcomes[i].Trace)
			if err != nil {
				return nil, err
			}
			meanSTI := stats.Mean(stiTrace(tw, opt, eval))
			if suite.Outcomes[i].Collision {
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
	return out, nil
}
