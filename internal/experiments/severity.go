package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/stats"
	"repro/internal/sti"
)

// SeverityResult compares collision severity (relative impact speed) with
// and without iPrism on one typology — an extension analysis: even where
// mitigation cannot prevent the accident, proactive braking sheds kinetic
// energy before impact.
type SeverityResult struct {
	Typology scenario.Typology
	// Baseline statistics over the baseline agent's collisions.
	BaselineCollisions int
	BaselineMeanImpact float64 // m/s
	BaselineP90Impact  float64
	// Mitigated statistics over the *remaining* collisions with iPrism.
	MitigatedCollisions int
	MitigatedMeanImpact float64
	MitigatedP90Impact  float64
}

// Severity trains (or reuses) an SMC for the typology and measures impact
// speeds with and without it.
func Severity(suites []Suite, ty scenario.Typology, ctrl *smc.SMC, opt Options) (SeverityResult, error) {
	res := SeverityResult{Typology: ty}
	suite, ok := findSuite(suites, ty)
	if !ok {
		return res, fmt.Errorf("experiments: missing %v suite", ty)
	}
	if err := opt.Validate(); err != nil {
		return res, err
	}
	lbc := func() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }

	var base []float64
	for _, o := range suite.Outcomes {
		if o.Collision {
			base = append(base, o.ImpactSpeed)
		}
	}
	res.BaselineCollisions = len(base)
	res.BaselineMeanImpact = stats.Mean(base)
	res.BaselineP90Impact = stats.Percentile(base, 90)

	if ctrl == nil {
		eval, err := sti.NewEvaluator(opt.Reach)
		if err != nil {
			return res, err
		}
		idx, err := selectTrainingScenario(suite, opt, eval)
		if err != nil {
			return res, err
		}
		ctrl, _, err = smc.Train([]scenario.Scenario{suite.Scenarios[idx]}, lbc,
			opt.smcConfig(true, opt.Seed), opt.TrainEpisodes)
		if err != nil {
			return res, err
		}
	}
	outcomes, err := runSuite(suite.Scenarios, opt.Workers, lbc,
		func() (sim.Mitigator, error) { return ctrl.CloneForRun(), nil }, false)
	if err != nil {
		return res, err
	}
	var mitigated []float64
	for _, o := range outcomes {
		if o.Collision {
			mitigated = append(mitigated, o.ImpactSpeed)
		}
	}
	res.MitigatedCollisions = len(mitigated)
	res.MitigatedMeanImpact = stats.Mean(mitigated)
	res.MitigatedP90Impact = stats.Percentile(mitigated, 90)
	return res, nil
}
