package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/sti"
)

// RoundaboutResult is the §V-C generalisation study: the RIP-analogue ring
// pilot on the roundabout ghost cut-in typology, with and without iPrism.
type RoundaboutResult struct {
	Instances     int
	RIPCollisions int
	// IPrismCollisions counts collisions with the (LBC-trained) SMC
	// transferred onto the ring pilot.
	IPrismCollisions int
	// Mitigated is the share of RIP accidents iPrism prevented.
	Mitigated float64
}

// Roundabout runs the roundabout study with a pre-trained SMC (trained on
// straight-road scenarios, transferred unchanged).
func Roundabout(ctrl *smc.SMC, opt Options) (RoundaboutResult, error) {
	var res RoundaboutResult
	if err := opt.Validate(); err != nil {
		return res, err
	}
	scns := scenario.Generate(scenario.RoundaboutCutIn, opt.ScenariosPerTypology, opt.Seed+99)
	res.Instances = len(scns)
	pilot := func() sim.Driver { return agent.NewRingPilot(agent.DefaultRingPilotConfig()) }

	base, err := runSuite(scns, opt.Workers, pilot, nil, false)
	if err != nil {
		return res, err
	}
	var tas []int
	for i, o := range base {
		if o.Collision {
			res.RIPCollisions++
			tas = append(tas, i)
		}
	}
	if ctrl == nil {
		return res, fmt.Errorf("experiments: roundabout needs a trained SMC")
	}
	mitigated, err := runSuite(scns, opt.Workers, pilot,
		func() (sim.Mitigator, error) { return ctrl.CloneForRun(), nil }, false)
	if err != nil {
		return res, err
	}
	prevented := 0
	for i, o := range mitigated {
		if o.Collision {
			res.IPrismCollisions++
		} else if contains(tas, i) {
			prevented++
		}
	}
	if len(tas) > 0 {
		res.Mitigated = float64(prevented) / float64(len(tas))
	}
	return res, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TrainGhostCutInSMC is a convenience used by Fig. 5, the roundabout study
// and the cmd tools: trains an SMC on the ghost cut-in typology's selected
// training scenario.
func TrainGhostCutInSMC(suites []Suite, opt Options) (*smc.SMC, error) {
	suite, ok := findSuite(suites, scenario.GhostCutIn)
	if !ok {
		return nil, fmt.Errorf("experiments: missing ghost cut-in suite")
	}
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		return nil, err
	}
	idx, err := selectTrainingScenario(suite, opt, eval)
	if err != nil {
		return nil, err
	}
	lbc := func() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }
	ctrl, _, err := smc.Train([]scenario.Scenario{suite.Scenarios[idx]}, lbc,
		opt.smcConfig(true, opt.Seed), opt.TrainEpisodes)
	return ctrl, err
}
