package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/agent"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/sti"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// smc_train: in-process smc.TrainContext on seeded ghost cut-in scenarios,
// one episode worker per CPU, a fixed episode budget per training run (one
// episode per scenario), repeated until the run's time is spent, each
// training run on its own scenarios drawn from the workload seed. Its
// operation is one agent decision: episode lengths follow the policy being
// learned and swing episodes per second by a quarter from seed to seed.
// The cost of a decision follows the scenarios and the policy too: with
// every training run of an invocation on the same 48 scenarios, ten seeds
// spread 0.22 (decision p50) and 0.26 (p99), against 0.03 and 0.07 for
// four runs of one seed, so an invocation averages many short training
// runs on different scenarios instead.
const (
	trainScenarios = 16
	trainBudget    = 16
	trainTailPct   = 99
	minTrainRuns   = 2
	// trainSetupRepeats is how many stand-ups set-up time is the median of.
	trainSetupRepeats = 41
)

// tap wraps every sim.Driver the trainer makes, so the benchmark can see
// episode boundaries (Reset) and agent calls (Act) from outside smc.
type tap struct {
	traced  bool
	mu      sync.Mutex
	drivers []*tappedDriver
}

func (t *tap) makeDriver() sim.Driver {
	d := &tappedDriver{inner: agent.NewLBC(agent.DefaultLBCConfig()), traced: t.traced}
	t.mu.Lock()
	t.drivers = append(t.drivers, d)
	t.mu.Unlock()
	return d
}

// episodeSpan is one episode as its driver saw it: the start of every Act,
// one per simulator step.
type episodeSpan struct {
	acts []time.Time
	last time.Time // end of the last Act
}

// tappedDriver belongs to one episode worker; the trainer has returned,
// and its workers have exited, before the benchmark reads it.
type tappedDriver struct {
	inner    sim.Driver
	traced   bool
	episodes []episodeSpan
	actUS    []float64 // traced: duration of each Act
	gapUS    []float64 // traced: time between consecutive Acts of an episode
}

func (d *tappedDriver) Reset() {
	d.episodes = append(d.episodes, episodeSpan{})
	d.inner.Reset()
}

func (d *tappedDriver) Act(obs sim.Observation) vehicle.Control {
	t0 := time.Now()
	c := d.inner.Act(obs)
	t1 := time.Now()
	ep := &d.episodes[len(d.episodes)-1]
	if d.traced {
		d.actUS = append(d.actUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		if len(ep.acts) > 0 {
			d.gapUS = append(d.gapUS, float64(t0.Sub(ep.last).Nanoseconds())/1e3)
		}
	}
	ep.acts = append(ep.acts, t0)
	ep.last = t1
	return c
}

// decision is one agent decision of a training episode: the simulator
// steps it held, with the SMC's STI evaluation, featurization and policy
// call, from its first step's Act to the next decision's.
type decision struct {
	start time.Time
	ms    float64
}

// decisions splits the driver's episodes into decisions of stride steps.
// An episode's last decision has no successor to end it and is counted but
// not timed.
func (d *tappedDriver) decisions(stride int) (timed []decision, made int) {
	for _, ep := range d.episodes {
		made += (len(ep.acts) + stride - 1) / stride
		for i := 0; (i+1)*stride < len(ep.acts); i++ {
			a, b := ep.acts[i*stride], ep.acts[(i+1)*stride]
			timed = append(timed, decision{a, ms(b.Sub(a))})
		}
	}
	return timed, made
}

// scenarioDraw draws the scenarios of successive training runs from the
// workload seed.
type scenarioDraw struct{ rng *rand.Rand }

func (d scenarioDraw) next() ([]scenario.Scenario, error) {
	seed := d.rng.Int63()
	scns := scenario.GenerateValid(scenario.GhostCutIn, trainScenarios, seed)
	if len(scns) == 0 {
		return nil, fmt.Errorf("no valid ghost cut-in scenario for scenario seed %d", seed)
	}
	return scns, nil
}

func runTrain(cfg runConfig) (*outcome, error) {
	draw := scenarioDraw{rand.New(rand.NewSource(cfg.seed))}
	first, err := draw.next()
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.engine = "in-process smc.DefaultConfig"
	tc := smc.DefaultConfig()
	tc.EpisodeWorkers = cfg.nproc
	if cfg.traced {
		telemetry.Enable()
		defer telemetry.Disable()
		telemetry.Default().Reset()
	}

	// Set-up: stand the trainer up and down with a context cancelled
	// before the first episode — learner, acting snapshot, episode workers
	// and their drivers — several times, and report the median.
	var setups []float64
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < trainSetupRepeats; i++ {
		t0 := time.Now()
		if _, _, err := smc.TrainContext(stopped, first, (&tap{}).makeDriver, tc, trainBudget, smc.TrainOptions{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	self := os.Getpid()
	var rates []float64
	var timed []decision
	var digests []string
	var cpuTotal, wallTotal float64
	var acts, gaps []float64
	episodes, made, steps := 0, 0, 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for r := 0; r < minTrainRuns || time.Now().Before(deadline); r++ {
		scns := first
		if r > 0 {
			if scns, err = draw.next(); err != nil {
				return nil, err
			}
		}
		tp := &tap{traced: cfg.traced}
		cpu0, err := cpuSeconds(self)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ctrl, res, err := smc.TrainContext(context.Background(), scns, tp.makeDriver, tc, trainBudget, smc.TrainOptions{})
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		cpu1, err := cpuSeconds(self)
		if err != nil {
			return nil, err
		}
		cpuTotal += cpu1 - cpu0
		wallTotal += wall.Seconds()

		o.attempted += trainBudget
		bad := trainBudget - res.Episodes
		for _, rw := range res.EpisodeRewards {
			if math.IsNaN(rw) || math.IsInf(rw, 0) {
				bad++
			}
		}
		o.failed += bad
		if bad > 0 {
			o.mismatches++
			o.lines = append(o.lines, fmt.Sprintf("MISMATCH training run %d: %d of %d episodes, %d non-finite rewards", r, res.Episodes, trainBudget, bad-(trainBudget-res.Episodes)))
		}
		digest, err := controllerDigest(ctrl, cfg.dir)
		if err != nil {
			return nil, err
		}
		digests = append(digests, digest)

		// Reduce the drivers' records now: kept across runs they would
		// grow this process's peak RSS, which smc_train reports.
		for _, d := range tp.drivers {
			ds, n := d.decisions(tc.DecisionStride)
			timed = append(timed, ds...)
			made += n
			for _, ep := range d.episodes {
				steps += len(ep.acts)
			}
			acts = append(acts, d.actUS...)
			gaps = append(gaps, d.gapUS...)
		}
		rates = append(rates, float64(res.Episodes)/wall.Seconds())
		episodes += res.Episodes
	}
	rss, err := peakRSSMB(self)
	if err != nil {
		return nil, err
	}
	o.rss = rss
	var snap telemetry.Snapshot
	if cfg.traced {
		snap = telemetry.Default().Snapshot()
	}

	// Training is deterministic: train on the first run's scenarios once
	// more, untimed, and compare the controllers.
	ctrl, _, err := smc.TrainContext(context.Background(), first, (&tap{}).makeDriver, tc, trainBudget, smc.TrainOptions{})
	if err != nil {
		return nil, err
	}
	again, err := controllerDigest(ctrl, cfg.dir)
	if err != nil {
		return nil, err
	}
	if again != digests[0] {
		o.mismatches++
		o.lines = append(o.lines, fmt.Sprintf("MISMATCH training run 0 retrained: controller %s differs from %s", again, digests[0]))
	}
	sort.Slice(timed, func(i, j int) bool { return timed[i].start.Before(timed[j].start) })
	lat := make([]float64, len(timed))
	for i, d := range timed {
		lat[i] = d.ms
		o.latAt = append(o.latAt, d.start)
	}
	o.setup = median(setups)
	o.goodput = float64(made) / wallTotal
	o.samples = len(lat)
	o.lat = lat
	o.latP50 = median(lat)
	o.latTail, o.tailPct = windowedTail(lat, trainTailPct)
	o.cpuPerOp = cpuTotal * 1e3 / float64(made)
	o.named = []named{
		{"episodes_per_s", median(rates), "1/s"},
		{"decisions_per_s", o.goodput, "1/s"},
		{"cpu_ms_per_decision", o.cpuPerOp, "ms"},
		{"training_runs", float64(len(rates)), "count"},
	}
	o.lines = append(o.lines, fmt.Sprintf("controller sha256 %s (training run 0 of %d, %d episodes each; retrained identically: %v)", digests[0], len(digests), trainBudget, again == digests[0]))
	o.layers["train.cpu_utilization"] = cpuTotal / (wallTotal * float64(cfg.nproc))
	if !cfg.traced {
		return o, nil
	}

	hist := func(name string) telemetry.HistogramStats { return snap.Histograms[name] }
	o.layers["agent.act_p50_us"] = median(acts)
	o.layers["sim.step_p50_us"] = median(gaps)
	o.layers["sim.steps_per_episode"] = ratio(float64(steps), float64(episodes))
	o.layers["smc.episode_p50_ms"] = hist("smc.episode.seconds").P50 * 1e3
	o.layers["smc.sti_evals_per_episode"] = ratio(float64(snap.Counters["sti.evaluations"]), float64(episodes))
	o.layers["smc.sti_evaluate_p50_ms"] = hist("sti.evaluate_combined.seconds").P50 * 1e3
	o.layers["smc.replay_queue_depth_mean"] = hist("smc.replay.queue_depth").Mean
	alloc, err := trainAllocPerEval(first, tc)
	if err != nil {
		return nil, err
	}
	o.layers["sti.alloc_kb_per_eval"] = alloc
	return o, nil
}

// controllerDigest saves the trained controller and hashes the file.
func controllerDigest(ctrl *smc.SMC, dir string) (string, error) {
	path := filepath.Join(dir, "controller.json")
	if err := ctrl.Save(path); err != nil {
		return "", err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// trainAllocPerEval measures heap allocation of the SMC's combined-STI
// evaluation on coasting observations of the training scenarios.
func trainAllocPerEval(scns []scenario.Scenario, tc smc.Config) (float64, error) {
	ev, err := sti.NewEvaluatorOptions(tc.Reach, sti.Options{Workers: 1})
	if err != nil {
		return 0, err
	}
	var obs []sim.Observation
	for _, s := range scns {
		w, err := s.Build()
		if err != nil {
			return 0, err
		}
		for i := 0; i < 40; i++ {
			// The world moves its actors in place; keep a copy per step.
			ob := w.Observe()
			actors := make([]*actor.Actor, len(ob.Actors))
			for j, a := range ob.Actors {
				cp := *a
				actors[j] = &cp
			}
			ob.Actors = actors
			obs = append(obs, ob)
			w.Advance(vehicle.Control{})
		}
	}
	return allocKB(len(obs), func() {
		for _, ob := range obs {
			ev.CombinedWithPrediction(ob.Map, ob.Ego, ob.Actors)
		}
	}), nil
}
