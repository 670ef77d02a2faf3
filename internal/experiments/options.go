// Package experiments regenerates every table and figure of the paper's
// evaluation section on top of the simulator substrate: Table I (scenario
// suite + baseline accidents), Table II (LTFMA per risk metric), Table III
// (mitigation efficacy), Table IV (mitigation activation timing), Fig. 4
// (risk characterisation traces), Fig. 5 (STI with and without iPrism),
// Fig. 6 (dataset STI distribution), Fig. 7 (mined case studies), and the
// roundabout generalisation study.
package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/reach"
	"repro/internal/rl"
	"repro/internal/smc"
)

// Options scale the experiments. Paper scale is 1000 scenarios per typology
// and 100 training episodes; the defaults are sized for minutes-level runs
// with the same qualitative results.
type Options struct {
	// ScenariosPerTypology is the suite size per typology (paper: 1000).
	ScenariosPerTypology int
	// Seed drives scenario sampling and RL training.
	Seed int64
	// Workers bounds the parallel episode runners.
	Workers int
	// TrainEpisodes is the SMC training budget per typology (paper: 100).
	TrainEpisodes int
	// MetricStride evaluates offline risk metrics every N simulator steps.
	MetricStride int
	// Reach configures every STI evaluation.
	Reach reach.Config
}

// DefaultOptions returns a laptop-scale configuration.
func DefaultOptions() Options {
	return Options{
		ScenariosPerTypology: 100,
		Seed:                 2024,
		Workers:              runtime.GOMAXPROCS(0),
		TrainEpisodes:        60,
		MetricStride:         2,
		Reach:                reach.DefaultConfig(),
	}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.ScenariosPerTypology < 1 {
		return fmt.Errorf("experiments: need at least one scenario per typology, got %d", o.ScenariosPerTypology)
	}
	if o.Workers < 1 {
		return fmt.Errorf("experiments: need at least one worker, got %d", o.Workers)
	}
	if o.TrainEpisodes < 1 {
		return fmt.Errorf("experiments: need at least one training episode, got %d", o.TrainEpisodes)
	}
	if o.MetricStride < 1 {
		return fmt.Errorf("experiments: metric stride must be >= 1, got %d", o.MetricStride)
	}
	return o.Reach.Validate()
}

// smcConfig builds the SMC configuration for the options.
func (o Options) smcConfig(useSTI bool, seed int64) smc.Config {
	cfg := smc.DefaultConfig()
	cfg.Reach = o.Reach
	cfg.UseSTI = useSTI
	ddqn := rl.DefaultDDQNConfig()
	ddqn.Seed = seed
	// Roughly half the training budget is exploration.
	ddqn.EpsDecaySteps = o.TrainEpisodes * 100
	cfg.DDQN = ddqn
	return cfg
}
