package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/stats"
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

// Severity trains an SMC with the run's own seed on the rear-end scenario
// Table III trained on, and measures impact speeds with and without it.
func Severity(ev *Evidence, t3 TableIIIResult) (SeverityResult, error) {
	res := SeverityResult{Typology: scenario.RearEnd}
	suite, ok := findSuite(ev.Suites, scenario.RearEnd)
	if !ok {
		return res, fmt.Errorf("experiments: missing rear-end suite")
	}
	idx, ok := t3.TrainScenarioID[scenario.RearEnd]
	if !ok {
		return res, fmt.Errorf("experiments: rear-end has no training scenario")
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

	opt := ev.opt
	ctrl, _, err := smc.Train([]scenario.Scenario{suite.Scenarios[idx]}, lbc,
		opt.smcConfig(true, opt.Seed), opt.TrainEpisodes)
	if err != nil {
		return res, err
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
