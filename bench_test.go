// Package repro_test is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index).
// Absolute numbers differ from the paper — the substrate is a 2-D simulator
// rather than CARLA — but each harness prints the paper's values next to
// the measured ones so the shape can be compared directly.
//
// Scale knobs (environment variables):
//
//	IPRISM_BENCH_SCENARIOS  scenario instances per typology (default 40; paper 1000)
//	IPRISM_BENCH_EPISODES   SMC training episodes          (default 40; paper 100)
package repro_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/actor"
	"repro/internal/agent"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/rl"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func benchOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.ScenariosPerTypology = envInt("IPRISM_BENCH_SCENARIOS", 40)
	opt.TrainEpisodes = envInt("IPRISM_BENCH_EPISODES", 40)
	return opt
}

// Shared, lazily built state so the figure benches don't retrain/rebuild.
var shared struct {
	once   sync.Once
	opt    experiments.Options
	suites []experiments.Suite
	err    error

	smcOnce sync.Once
	ghost   *smc.SMC
	smcErr  error
}

func benchSuites(b *testing.B) ([]experiments.Suite, experiments.Options) {
	b.Helper()
	shared.once.Do(func() {
		shared.opt = benchOptions()
		shared.suites, shared.err = experiments.BuildSuites(shared.opt)
	})
	if shared.err != nil {
		b.Fatal(shared.err)
	}
	return shared.suites, shared.opt
}

func benchGhostSMC(b *testing.B) *smc.SMC {
	b.Helper()
	suites, opt := benchSuites(b)
	shared.smcOnce.Do(func() {
		shared.ghost, shared.smcErr = experiments.TrainGhostCutInSMC(suites, opt)
	})
	if shared.smcErr != nil {
		b.Fatal(shared.smcErr)
	}
	return shared.ghost
}

// BenchmarkTableI_ScenarioSuite regenerates Table I: suite generation plus
// the baseline LBC run over every instance.
func BenchmarkTableI_ScenarioSuite(b *testing.B) {
	opt := benchOptions()
	var rows []experiments.TableIRow
	for i := 0; i < b.N; i++ {
		suites, err := experiments.BuildSuites(opt)
		if err != nil {
			b.Fatal(err)
		}
		rows = experiments.TableI(suites)
	}
	b.StopTimer()
	fmt.Printf("\n--- Table I (n=%d per typology; paper n=1000) ---\n", opt.ScenariosPerTypology)
	paper := map[scenario.Typology]string{
		scenario.GhostCutIn: "519/1000", scenario.LeadCutIn: "170/1000",
		scenario.LeadSlowdown: "118/1000", scenario.FrontAccident: "0/810",
		scenario.RearEnd: "770/1000",
	}
	for _, r := range rows {
		fmt.Printf("%-16s measured %d/%d accidents   paper %s\n",
			r.Typology, r.Accidents, r.Instances, paper[r.Typology])
	}
}

// BenchmarkTableII_LTFMA regenerates Table II: LTFMA of every risk metric
// over the accident scenarios.
func BenchmarkTableII_LTFMA(b *testing.B) {
	suites, opt := benchSuites(b)
	var res experiments.TableIIResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.TableII(suites, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println("\n--- Table II: LTFMA seconds, mean (SD); paper averages in brackets ---")
	paperAvg := map[string]float64{
		"TTC": 0.83, "Dist. CIPA": 1.38, "PKL-All": 0.75, "PKL-Holdout": 1.19, "STI": 3.69,
	}
	for _, name := range experiments.MetricNames {
		fmt.Printf("%-12s", name)
		for _, cell := range res.LTFMA[name] {
			fmt.Printf(" %14s", cell)
		}
		fmt.Printf("   avg %.2f [paper %.2f]\n", res.Average[name], paperAvg[name])
	}
	b.ReportMetric(res.Average["STI"], "sti-ltfma-s")
	b.ReportMetric(res.Average["TTC"], "ttc-ltfma-s")
}

// BenchmarkTableIII_Mitigation regenerates Tables III and IV: SMC training
// per typology, the four-agent comparison, the rear-end acceleration
// extension, and the activation-timing analysis.
func BenchmarkTableIII_Mitigation(b *testing.B) {
	suites, opt := benchSuites(b)
	var t3 experiments.TableIIIResult
	var err error
	for i := 0; i < b.N; i++ {
		t3, err = experiments.TableIII(suites, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println("\n--- Table III: CA% (accidents prevented) / TCR% (total collision rate) ---")
	paper := map[string][3]string{
		experiments.AgentLBCiPrism: {"49/26.7", "98/0.3", "87/1.5"},
		experiments.AgentLBCNoSTI:  {"1/51.6", "2/16.7", "86/1.6"},
		experiments.AgentLBCACA:    {"0/51.9", "0/17.0", "92/1.0"},
		experiments.AgentRIPiPrism: {"86/6.5", "61/26.5", "71/12.9"},
	}
	for _, name := range []string{
		experiments.AgentLBCiPrism, experiments.AgentLBCNoSTI,
		experiments.AgentLBCACA, experiments.AgentRIPiPrism,
	} {
		fmt.Printf("%-34s", name)
		for i, r := range t3.Rows[name] {
			fmt.Printf("  %s: %.0f/%.1f [paper %s]", t3.Typologies[i], r.CAPct, r.TCRPct, paper[name][i])
		}
		fmt.Println()
	}
	fmt.Printf("rear-end extension: CA %d/%d = %.0f%% [paper 282/770 = 37%%]\n",
		t3.RearEnd.CA, t3.RearEnd.TAS, t3.RearEnd.CAPct)

	fmt.Println("\n--- Table IV: first mitigation time (s), iPrism vs ACA ---")
	paperLead := [3]float64{0.57, 3.73, 1.32}
	for i, row := range experiments.TableIV(t3) {
		fmt.Printf("%-14s iPrism %.2f  ACA %.2f  lead %.2f [paper lead %.2f]\n",
			row.Typology, row.IPrism, row.ACA, row.LeadTime, paperLead[i])
	}
}

// BenchmarkFig4_RiskCharacterization regenerates the Fig. 4 metric traces
// (mean±SD of STI/PKL/TTC, safe vs accident populations).
func BenchmarkFig4_RiskCharacterization(b *testing.B) {
	suites, opt := benchSuites(b)
	var series []experiments.Fig4Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = experiments.Fig4(suites, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println("\n--- Fig. 4: final-step mean of each metric (accident population) ---")
	for _, s := range series {
		if s.Accident.Len() == 0 {
			continue
		}
		last := s.Accident.Mean[s.Accident.Len()-1]
		fmt.Printf("%-16s %-4s accident-final %.2f  (STI should approach 1 at accidents)\n",
			s.Typology, s.Metric, last)
	}
}

// BenchmarkFig5_STITraces regenerates Fig. 5: ghost cut-in STI with and
// without iPrism.
func BenchmarkFig5_STITraces(b *testing.B) {
	suites, opt := benchSuites(b)
	ctrl := benchGhostSMC(b)
	var res experiments.Fig5Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig5(suites, ctrl, opt, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	peak := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	fmt.Printf("\n--- Fig. 5: ghost cut-in STI peak: LBC %.2f vs iPrism %.2f (paper: iPrism consistently lower) ---\n",
		peak(res.LBC.Mean), peak(res.IPrism.Mean))
}

// BenchmarkFig6_DatasetCharacterization regenerates Fig. 6: the STI
// distribution of the synthetic real-world corpus.
func BenchmarkFig6_DatasetCharacterization(b *testing.B) {
	opt := benchOptions()
	corpus := dataset.DefaultCorpusConfig()
	var res experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig6(corpus, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println("\n--- Fig. 6: corpus STI percentiles p50/p75/p90/p99 ---")
	fmt.Printf("actor    %.2f/%.2f/%.2f/%.2f [paper 0.00/0.00/0.02/0.33]\n",
		res.Actor.P50, res.Actor.P75, res.Actor.P90, res.Actor.P99)
	fmt.Printf("combined %.2f/%.2f/%.2f/%.2f [paper 0.09/0.29/0.52/0.93]\n",
		res.Combined.P50, res.Combined.P75, res.Combined.P90, res.Combined.P99)
}

// BenchmarkFig7_CaseStudies regenerates Fig. 7: the four mined scenes.
func BenchmarkFig7_CaseStudies(b *testing.B) {
	opt := benchOptions()
	var cases []experiments.Fig7Case
	var err error
	for i := 0; i < b.N; i++ {
		cases, err = experiments.Fig7(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println("\n--- Fig. 7: key-actor STI per case ---")
	paper := map[string]string{
		"pedestrian crossing": "0.72", "oversized actor": "0.69",
		"cluttered street": "0.35 (entering actor)", "actor pulling out": "nonzero",
	}
	for _, c := range cases {
		fmt.Printf("%-20s key %.2f combined %.2f [paper %s]\n", c.Name, c.KeySTI, c.Combined, paper[c.Name])
	}
}

// BenchmarkRoundabout_RIP regenerates the §V-C roundabout generalisation
// study.
func BenchmarkRoundabout_RIP(b *testing.B) {
	_, opt := benchSuites(b)
	ctrl := benchGhostSMC(b)
	var res experiments.RoundaboutResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Roundabout(ctrl, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n--- Roundabout: pilot %d/%d collisions, +iPrism %d/%d, mitigated %.0f%% [paper 84.3%% -> 68.6%%] ---\n",
		res.RIPCollisions, res.Instances, res.IPrismCollisions, res.Instances, res.Mitigated*100)
}

// BenchmarkSTIEvaluation measures one full STI evaluation (per-actor
// counterfactuals included) — §V-E reports 0.61 s for the authors' Python
// implementation.
func BenchmarkSTIEvaluation(b *testing.B) {
	eval := sti.MustNewEvaluator(reach.DefaultConfig())
	road := roadmap.MustStraightRoad(2, 3.5, -100, 1000)
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(-15, 1.75), Speed: 15}),
	}
	ego := vehicle.State{Pos: geom.V(0, 1.75), Speed: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Score(context.Background(), sti.Query{Map: road, Ego: ego, Actors: actors}, nil)
	}
}

// BenchmarkSMCInference measures one SMC decision (STI + featurise +
// Q-network forward) — §V-E reports 12 ms.
func BenchmarkSMCInference(b *testing.B) {
	cfg := smc.DefaultConfig()
	learner, err := rl.NewDDQN(cfg.FeatureDim(), len(cfg.Actions), cfg.DDQN)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := smc.New(cfg, learner.Policy())
	if err != nil {
		b.Fatal(err)
	}
	road := roadmap.MustStraightRoad(2, 3.5, -100, 1000)
	obs := sim.Observation{
		Map:       road,
		Ego:       vehicle.State{Pos: geom.V(0, 1.75), Speed: 10},
		EgoParams: vehicle.DefaultParams(),
		Dt:        0.1,
		Actors: []*actor.Actor{
			actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
			actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		},
	}
	ads := vehicle.Control{Accel: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Reset() // force a fresh decision every call
		ctrl.Mitigate(obs, ads)
	}
}

// BenchmarkSMCTrainingEpisode measures one SMC training episode — §V-E
// reports 344 s per episode on the authors' GPU platform.
func BenchmarkSMCTrainingEpisode(b *testing.B) {
	scns := scenario.Generate(scenario.GhostCutIn, 1, 3)
	lbc := func() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }
	cfg := smc.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := smc.Train(scns, lbc, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReachAblation compares the paper's boundary-control enumeration
// (optimisation 2) against dense uniform sampling — footnote 5 claims the
// results differ only marginally while the cost differs substantially.
func BenchmarkReachAblation(b *testing.B) {
	road := roadmap.MustStraightRoad(2, 3.5, -100, 1000)
	ego := vehicle.State{Pos: geom.V(0, 1.75), Speed: 10}
	for _, bench := range []struct {
		name    string
		samples int
	}{
		{"boundary-only", 0},
		{"sampled-25", 25},
		{"sampled-100", 100},
	} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := reach.DefaultConfig()
			if bench.samples > 0 {
				cfg.BoundaryOnly = false
				cfg.Samples = bench.samples
			}
			var vol float64
			for i := 0; i < b.N; i++ {
				vol = reach.Compute(road, nil, ego, cfg, nil).Volume
			}
			b.ReportMetric(vol, "tube-m2")
		})
	}
}

// BenchmarkActionSpaceAblation studies the SMC action space on the
// rear-end typology: braking alone cannot mitigate a threat from behind
// (§V-C); acceleration can; the lane-change extension (§VII) is included
// as implemented future work.
func BenchmarkActionSpaceAblation(b *testing.B) {
	suites, opt := benchSuites(b)
	var sets []experiments.ActionSetResult
	var err error
	for i := 0; i < b.N; i++ {
		sets, err = experiments.ActionAblation(suites, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println("\n--- Action-space ablation on rear-end (paper: braking useless, accel saves 37%) ---")
	for _, s := range sets {
		fmt.Printf("%-26s CA %d/%d (%.0f%%)\n", s.Name, s.CA, s.TAS, s.CAPct)
	}
}

// BenchmarkImpactSeverity is an extension analysis beyond the paper:
// collision counts hide that a mitigation controller also sheds kinetic
// energy in the accidents it cannot prevent. Compare impact speeds of the
// baseline's rear-end collisions with the iPrism residuals.
func BenchmarkImpactSeverity(b *testing.B) {
	suites, opt := benchSuites(b)
	var res experiments.SeverityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Severity(suites, scenario.RearEnd, nil, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n--- Impact severity (rear-end): baseline %d collisions, mean %.1f m/s (p90 %.1f); "+
		"with iPrism %d collisions, mean %.1f m/s (p90 %.1f) ---\n",
		res.BaselineCollisions, res.BaselineMeanImpact, res.BaselineP90Impact,
		res.MitigatedCollisions, res.MitigatedMeanImpact, res.MitigatedP90Impact)
}

// BenchmarkSensitivity quantifies §IV-B1's criticality claim: the
// correlation between each scenario hyperparameter and the crash outcome.
func BenchmarkSensitivity(b *testing.B) {
	suites, _ := benchSuites(b)
	results := map[scenario.Typology][]experiments.SensitivityRow{}
	for i := 0; i < b.N; i++ {
		for _, suite := range suites {
			if suite.Typology == scenario.FrontAccident {
				continue
			}
			rows, err := experiments.Sensitivity(suite)
			if err != nil {
				b.Fatal(err)
			}
			results[suite.Typology] = rows
		}
	}
	b.StopTimer()
	fmt.Println("\n--- Hyperparameter sensitivity (correlation with crash outcome) ---")
	for _, suite := range suites {
		rows, ok := results[suite.Typology]
		if !ok {
			continue
		}
		fmt.Printf("%-16s", suite.Typology)
		for _, r := range rows {
			fmt.Printf("  %s %.2f", r.Hyperparameter, r.Correlation)
		}
		fmt.Println()
	}
}
