package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/vehicle"
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
// further escape dimension. The brake+accelerate row is Table III's
// rear-end extension; the other rows train on the same scenario with the
// same seed, so the only difference between rows is the action set.
func ActionAblation(ev *Evidence, t3 TableIIIResult) ([]ActionSetResult, error) {
	rear, ok := findSuite(ev.Suites, scenario.RearEnd)
	if !ok {
		return nil, fmt.Errorf("experiments: missing rear-end suite")
	}
	trainIdx, ok := t3.TrainScenarioID[scenario.RearEnd]
	if !ok {
		return nil, fmt.Errorf("experiments: rear-end has no trained SMC")
	}
	lbc := func() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }
	sets := []ActionSetResult{
		{Name: "brake only", Actions: []smc.Action{smc.NoOp, smc.Brake}},
		{Name: "brake+accelerate", Actions: smc.DefaultConfig().Actions,
			TAS: t3.RearEnd.TAS, CA: t3.RearEnd.CA, CAPct: t3.RearEnd.CAPct},
		{Name: "brake+accel+lane-change", Actions: []smc.Action{
			smc.NoOp, smc.Brake, smc.Accelerate, smc.LaneLeft, smc.LaneRight,
		}},
	}
	for i := range sets {
		if i == 1 {
			continue // Table III's rear-end result
		}
		cfg := ev.opt.smcConfig(true, ev.opt.Seed+7)
		cfg.Actions = sets[i].Actions
		ctrl, _, err := smc.Train([]scenario.Scenario{rear.Scenarios[trainIdx]}, lbc, cfg, ev.opt.TrainEpisodes)
		if err != nil {
			return nil, fmt.Errorf("experiments: train %q: %w", sets[i].Name, err)
		}
		r, err := evaluateAgent(rear.Scenarios, rear.Accidents(), ev.opt, lbc,
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

// ReachVariant is one control-sampling level of the footnote-5 ablation.
type ReachVariant struct {
	Name   string
	Config reach.Config
}

// ReachVariants derives the ablation's sampling levels from base: the
// paper's boundary-control enumeration (optimisation 2) and dense uniform
// sampling at 25 and 100 controls.
func ReachVariants(base reach.Config) []ReachVariant {
	out := []ReachVariant{{Name: "boundary-only", Config: base}}
	for _, n := range []int{25, 100} {
		cfg := base
		cfg.BoundaryOnly = false
		cfg.Samples = n
		out = append(out, ReachVariant{Name: fmt.Sprintf("sampled-%d", n), Config: cfg})
	}
	return out
}

// ReachAblationRow is the empty-road tube volume at one sampling level.
type ReachAblationRow struct {
	Name   string
	Volume float64 // m²
}

// ReachAblation computes the footnote-5 ablation: the paper claims
// boundary enumeration changes the escape-route volume only marginally
// against dense sampling. The scene is an ego at 10 m/s on an empty
// two-lane road, the fixture BenchmarkReachAblation times.
func ReachAblation(opt Options) []ReachAblationRow {
	road := roadmap.MustStraightRoad(2, 3.5, -100, 1000)
	ego := vehicle.State{Pos: geom.V(0, 1.75), Speed: 10}
	var out []ReachAblationRow
	for _, v := range ReachVariants(opt.Reach) {
		out = append(out, ReachAblationRow{Name: v.Name, Volume: reach.Compute(road, nil, ego, v.Config, nil).Volume})
	}
	return out
}
