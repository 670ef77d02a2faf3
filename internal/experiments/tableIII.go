package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/stats"
)

// Agent row labels of Table III.
const (
	AgentLBCiPrism = "LBC+SMC w/ STI (LBC+iPrism)"
	AgentLBCNoSTI  = "LBC+SMC w/o STI"
	AgentLBCACA    = "LBC+TTC-based ACA"
	AgentRIPiPrism = "RIP+SMC w/ STI (RIP+iPrism)"
)

// AgentTypologyResult is one cell group of Table III: an agent's accident
// prevention on one typology.
type AgentTypologyResult struct {
	Typology scenario.Typology
	TAS      int     // accident scenarios of the underlying baseline agent
	CA       int     // of those, how many the mitigation prevented
	CAPct    float64 // CA / TAS × 100
	TCRPct   float64 // total collisions of the mitigated agent / suite size × 100
	// MitigationTimes collects the first-mitigation times (s) across the
	// suite for Table IV (only scenarios where mitigation fired).
	MitigationTimes []float64
}

// TableIIIResult holds the full mitigation comparison.
type TableIIIResult struct {
	// Typologies are the columns. A typology without a baseline accident
	// has no trained controller, and its cells are zero.
	Typologies []scenario.Typology
	// Rows[agent][i] is the agent's result on Typologies[i].
	Rows map[string][]AgentTypologyResult
	// RearEnd is the §V-C extension: SMC with acceleration on the rear-end
	// typology (TAS from the LBC baseline).
	RearEnd AgentTypologyResult
	// TrainScenarioID[typology] records which instance trained the SMC.
	TrainScenarioID map[scenario.Typology]int
	// Controllers[typology] is the LBC+iPrism SMC trained on it (for the
	// rear-end typology, the acceleration extension's SMC). Later
	// sections reuse these instead of training their own.
	Controllers map[scenario.Typology]*smc.SMC
}

// agentNames are the Table III rows in paper order.
var agentNames = []string{AgentLBCiPrism, AgentLBCNoSTI, AgentLBCACA, AgentRIPiPrism}

// mitigationTypologies are the Table III columns.
var mitigationTypologies = []scenario.Typology{
	scenario.GhostCutIn, scenario.LeadCutIn, scenario.LeadSlowdown,
}

// TableIII trains the SMCs and runs the full §V-C comparison. A typology
// without a baseline accident has nothing to train on and is skipped.
func TableIII(ev *Evidence) (TableIIIResult, error) {
	res := TableIIIResult{
		Rows:            make(map[string][]AgentTypologyResult),
		TrainScenarioID: make(map[scenario.Typology]int),
		Controllers:     make(map[scenario.Typology]*smc.SMC),
	}
	opt := ev.opt
	lbc := func() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }
	rip := func() sim.Driver { return agent.NewRIP(agent.DefaultRIPConfig()) }
	// train selects suite's training scenario and trains its SMC with seed.
	train := func(suite Suite, seed int64) (*smc.SMC, error) {
		idx, err := ev.TrainingScenario(suite.Typology)
		if err != nil {
			return nil, err
		}
		ctrl, _, err := smc.Train([]scenario.Scenario{suite.Scenarios[idx]}, lbc, opt.smcConfig(true, seed), opt.TrainEpisodes)
		if err != nil {
			return nil, fmt.Errorf("experiments: train %v SMC: %w", suite.Typology, err)
		}
		res.TrainScenarioID[suite.Typology] = idx
		res.Controllers[suite.Typology] = ctrl
		return ctrl, nil
	}

	for _, ty := range mitigationTypologies {
		suite, ok := findSuite(ev.Suites, ty)
		if !ok {
			return res, fmt.Errorf("experiments: missing %v suite", ty)
		}
		res.Typologies = append(res.Typologies, ty)
		// LBC-based rows share the LBC TAS set.
		tas := suite.Accidents()
		if len(tas) == 0 {
			for _, name := range agentNames {
				res.Rows[name] = append(res.Rows[name], AgentTypologyResult{Typology: ty})
			}
			continue
		}
		withSTI, err := train(suite, opt.Seed)
		if err != nil {
			return res, err
		}
		trainScn := []scenario.Scenario{suite.Scenarios[res.TrainScenarioID[ty]]}
		withoutSTI, _, err := smc.Train(trainScn, lbc, opt.smcConfig(false, opt.Seed), opt.TrainEpisodes)
		if err != nil {
			return res, fmt.Errorf("experiments: train %v ablation SMC: %w", ty, err)
		}

		for name, mit := range map[string]func() (sim.Mitigator, error){
			AgentLBCiPrism: func() (sim.Mitigator, error) { return withSTI.CloneForRun(), nil },
			AgentLBCNoSTI:  func() (sim.Mitigator, error) { return withoutSTI.CloneForRun(), nil },
			AgentLBCACA:    func() (sim.Mitigator, error) { return agent.NewACA(agent.DefaultACAConfig()), nil },
		} {
			r, err := evaluateAgent(suite.Scenarios, tas, opt, lbc, mit)
			if err != nil {
				return res, err
			}
			r.Typology = ty
			res.Rows[name] = append(res.Rows[name], r)
		}

		// RIP baseline has its own TAS set; iPrism (trained on LBC) is
		// transferred unchanged — the generalisation claim.
		ripOutcomes, err := runSuite(suite.Scenarios, opt.Workers, rip, nil, false)
		if err != nil {
			return res, err
		}
		var ripTAS []int
		for i, o := range ripOutcomes {
			if o.Collision {
				ripTAS = append(ripTAS, i)
			}
		}
		r, err := evaluateAgent(suite.Scenarios, ripTAS, opt, rip,
			func() (sim.Mitigator, error) { return withSTI.CloneForRun(), nil })
		if err != nil {
			return res, err
		}
		r.Typology = ty
		res.Rows[AgentRIPiPrism] = append(res.Rows[AgentRIPiPrism], r)
	}

	// Rear-end extension: braking alone cannot fix it; the SMC's
	// acceleration action can (§V-C "Extension to other mitigation
	// actions").
	rear, ok := findSuite(ev.Suites, scenario.RearEnd)
	if !ok {
		return res, fmt.Errorf("experiments: missing rear-end suite")
	}
	res.RearEnd.Typology = scenario.RearEnd
	if len(rear.Accidents()) == 0 {
		return res, nil
	}
	rearSMC, err := train(rear, opt.Seed+7)
	if err != nil {
		return res, err
	}
	rearRes, err := evaluateAgent(rear.Scenarios, rear.Accidents(), opt, lbc,
		func() (sim.Mitigator, error) { return rearSMC.CloneForRun(), nil })
	if err != nil {
		return res, err
	}
	rearRes.Typology = scenario.RearEnd
	res.RearEnd = rearRes
	return res, nil
}

// evaluateAgent runs driver+mitigator over the suite and scores it against
// the given TAS set.
func evaluateAgent(scns []scenario.Scenario, tas []int, opt Options, makeDriver func() sim.Driver, makeMitigator func() (sim.Mitigator, error)) (AgentTypologyResult, error) {
	outcomes, err := runSuite(scns, opt.Workers, makeDriver, makeMitigator, false)
	if err != nil {
		return AgentTypologyResult{}, err
	}
	r := AgentTypologyResult{TAS: len(tas)}
	collisions := 0
	for i, o := range outcomes {
		if o.Collision {
			collisions++
		}
		if t := o.FirstMitigationTime(scns[i].Dt); t >= 0 {
			r.MitigationTimes = append(r.MitigationTimes, t)
		}
	}
	for _, idx := range tas {
		if !outcomes[idx].Collision {
			r.CA++
		}
	}
	if r.TAS > 0 {
		r.CAPct = float64(r.CA) / float64(r.TAS) * 100
	}
	if len(scns) > 0 {
		r.TCRPct = float64(collisions) / float64(len(scns)) * 100
	}
	return r, nil
}

func findSuite(suites []Suite, ty scenario.Typology) (Suite, bool) {
	for _, s := range suites {
		if s.Typology == ty {
			return s, true
		}
	}
	return Suite{}, false
}

// TableIVRow is one column of Table IV: average first-mitigation times.
type TableIVRow struct {
	Typology scenario.Typology
	IPrism   float64 // LBC+SMC w/ STI average activation time (s)
	ACA      float64 // LBC+TTC-based ACA average activation time (s)
	LeadTime float64 // ACA − iPrism (positive: iPrism acts earlier)
}

// TableIV derives the activation-timing comparison from the Table III runs.
func TableIV(t3 TableIIIResult) []TableIVRow {
	rows := make([]TableIVRow, 0, len(t3.Typologies))
	for i, ty := range t3.Typologies {
		ip := stats.Mean(t3.Rows[AgentLBCiPrism][i].MitigationTimes)
		aca := stats.Mean(t3.Rows[AgentLBCACA][i].MitigationTimes)
		rows = append(rows, TableIVRow{
			Typology: ty,
			IPrism:   ip,
			ACA:      aca,
			LeadTime: aca - ip,
		})
	}
	return rows
}
