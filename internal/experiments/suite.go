package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Suite telemetry: scenarios_done counts completed episodes across all
// workers (live suite progress over expvar); episodes_per_sec is the
// aggregate throughput of the last finished suite.
var (
	telSuiteScenarios = telemetry.NewCounter("experiments.suite.scenarios_done")
	telSuiteThroughpt = telemetry.NewGauge("experiments.suite.episodes_per_sec")
)

// Suite is the generated scenario set of one typology together with the
// baseline (LBC) episode outcomes, traces included.
type Suite struct {
	Typology  scenario.Typology
	Scenarios []scenario.Scenario
	Outcomes  []sim.Outcome
	// Traces[i] are the risk traces of episode i, filled by Trace.
	Traces []EpisodeTrace
}

// Accidents returns the indices of scenarios in which the baseline agent
// collided (the TAS set of Table III).
func (s Suite) Accidents() []int {
	var out []int
	for i, o := range s.Outcomes {
		if o.Collision {
			out = append(out, i)
		}
	}
	return out
}

// BuildSuites generates the five typologies' suites and runs the LBC
// baseline over every instance (with trace recording for the offline
// metric studies). Front-accident instances are validity-filtered as in
// the paper.
func BuildSuites(opt Options) ([]Suite, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	suites := make([]Suite, len(scenario.Typologies))
	for i, ty := range scenario.Typologies {
		sp := telemetry.StartSpan("experiments.build_suite")
		suite, err := NewSuite(ty, scenario.GenerateValid(ty, opt.ScenariosPerTypology, opt.Seed+int64(i)), opt.Workers)
		if err != nil {
			return nil, err
		}
		suites[i] = suite
		elapsed := sp.End()
		if telemetry.JournalActive() {
			telemetry.Emit("experiments.suite", map[string]any{
				"typology":  ty.String(),
				"scenarios": len(suite.Scenarios),
				"accidents": len(suite.Accidents()),
				"seconds":   elapsed.Seconds(),
			})
		}
	}
	return suites, nil
}

// NewSuite runs the LBC baseline over scns on a pool of workers, recording
// every episode's trace.
func NewSuite(ty scenario.Typology, scns []scenario.Scenario, workers int) (Suite, error) {
	outcomes, err := runSuite(scns, workers, func() sim.Driver {
		return agent.NewLBC(agent.DefaultLBCConfig())
	}, nil, true)
	if err != nil {
		return Suite{}, fmt.Errorf("experiments: %v suite: %w", ty, err)
	}
	return Suite{Typology: ty, Scenarios: scns, Outcomes: outcomes}, nil
}

// runSuite executes every scenario with a fresh driver (and optionally a
// fresh mitigator) using a bounded worker pool.
func runSuite(scns []scenario.Scenario, workers int, makeDriver func() sim.Driver, makeMitigator func() (sim.Mitigator, error), record bool) ([]sim.Outcome, error) {
	start := time.Now()
	outcomes := make([]sim.Outcome, len(scns))
	errs := make([]error, len(scns))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range scns {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			w, err := scns[i].Build()
			if err != nil {
				errs[i] = err
				return
			}
			var mit sim.Mitigator
			if makeMitigator != nil {
				mit, err = makeMitigator()
				if err != nil {
					errs[i] = err
					return
				}
			}
			outcomes[i] = sim.Run(w, makeDriver(), mit, sim.RunConfig{
				MaxSteps:    scns[i].MaxSteps,
				RecordTrace: record,
			})
			telSuiteScenarios.Inc()
		}(i)
	}
	wg.Wait()
	if d := time.Since(start).Seconds(); d > 0 {
		telSuiteThroughpt.Set(float64(len(scns)) / d)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outcomes, nil
}

// TableIRow is one row of Table I.
type TableIRow struct {
	Typology        scenario.Typology
	Instances       int
	Hyperparameters []string
	Accidents       int
}

// TableI summarises the suites into Table I rows.
func TableI(suites []Suite) []TableIRow {
	rows := make([]TableIRow, len(suites))
	for i, s := range suites {
		rows[i] = TableIRow{
			Typology:        s.Typology,
			Instances:       len(s.Scenarios),
			Hyperparameters: scenario.Hyperparameters(s.Typology),
			Accidents:       len(s.Accidents()),
		}
	}
	return rows
}
