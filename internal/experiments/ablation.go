package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/sti"
)

// ActionSetResult is one row of the action-space ablation.
type ActionSetResult struct {
	Name    string
	Actions []smc.Action
	TAS     int
	CA      int
	CAPct   float64
}

// ActionAblation studies the SMC's action space on the rear-end typology —
// the paper's §V-C argument: braking alone cannot mitigate a threat from
// behind, acceleration can, and the lane-change extension (§VII) adds a
// further escape dimension.
func ActionAblation(suites []Suite, opt Options) ([]ActionSetResult, error) {
	return ActionAblationOn(suites, scenario.RearEnd, opt)
}

// ActionAblationOn runs the action-space ablation on an arbitrary typology.
func ActionAblationOn(suites []Suite, ty scenario.Typology, opt Options) ([]ActionSetResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	rear, ok := findSuite(suites, ty)
	if !ok {
		return nil, fmt.Errorf("experiments: missing %v suite", ty)
	}
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		return nil, err
	}
	trainIdx, err := selectTrainingScenario(rear, opt, eval)
	if err != nil {
		return nil, err
	}
	lbc := func() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }
	tas := rear.Accidents()

	sets := []ActionSetResult{
		{Name: "brake only", Actions: []smc.Action{smc.NoOp, smc.Brake}},
		{Name: "brake+accelerate", Actions: []smc.Action{smc.NoOp, smc.Brake, smc.Accelerate}},
		{Name: "brake+accel+lane-change", Actions: []smc.Action{
			smc.NoOp, smc.Brake, smc.Accelerate, smc.LaneLeft, smc.LaneRight,
		}},
	}
	for i := range sets {
		// The same training seed as the Table III rear-end SMC, so the only
		// difference between rows is the action set.
		cfg := opt.smcConfig(true, opt.Seed+7)
		cfg.Actions = sets[i].Actions
		ctrl, _, err := smc.Train([]scenario.Scenario{rear.Scenarios[trainIdx]}, lbc, cfg, opt.TrainEpisodes)
		if err != nil {
			return nil, fmt.Errorf("experiments: train %q: %w", sets[i].Name, err)
		}
		r, err := evaluateAgent(rear.Scenarios, tas, opt, lbc,
			func() (sim.Mitigator, error) { return ctrl.CloneForRun(), nil })
		if err != nil {
			return nil, err
		}
		sets[i].TAS = r.TAS
		sets[i].CA = r.CA
		sets[i].CAPct = r.CAPct
	}
	return sets, nil
}
