package smc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/rl"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Training telemetry: the gauges track the latest episode (live training
// curves over expvar), the journal records every episode for offline
// analysis.
var (
	telEpisodes       = telemetry.NewCounter("smc.episodes")
	telTrainCollide   = telemetry.NewCounter("smc.train_collisions")
	telEpisodeSeconds = telemetry.NewHistogram("smc.episode.seconds", telemetry.LatencyBuckets())
	telReward         = telemetry.NewGauge("smc.reward")
	telEpsilon        = telemetry.NewGauge("smc.epsilon")
	telLoss           = telemetry.NewGauge("smc.loss")
	telStepsPerSec    = telemetry.NewGauge("smc.steps_per_sec")
	telEpisodeWorkers = telemetry.NewGauge("smc.episode_workers")
	// telQueueDepth tracks the pipeline's in-flight episode window at each
	// learner consume — the backlog between simulation and the central
	// replay/learner. Serial training holds it at 1 by construction.
	telQueueDepth = telemetry.NewHistogram("smc.replay.queue_depth", telemetry.LinearBuckets(0, 1, 33))
)

// TrainResult summarises an SMC training run.
type TrainResult struct {
	Episodes       int
	EpisodeRewards []float64
	Collisions     int
	// FinalEpsilon is the exploration rate at the end of training.
	FinalEpsilon float64
	// StartEpisode is the first episode this run executed (non-zero when
	// resumed from a checkpoint; EpisodeRewards still covers all episodes).
	StartEpisode int
	// Interrupted reports that the run stopped early on context
	// cancellation; Episodes then counts the episodes actually completed
	// and, with a checkpoint path configured, a final checkpoint holds the
	// exact state to continue from.
	Interrupted bool
}

// TrainOptions configures checkpoint/resume behaviour for TrainContext.
// The zero value trains without checkpoints, like the historical trainer.
type TrainOptions struct {
	// CheckpointPath, when non-empty, receives an atomic checkpoint every
	// CheckpointEvery episodes, at the end of training and on cancellation.
	CheckpointPath string
	// CheckpointEvery is the episode cadence (<=0 defaults to 25). The
	// cadence is on the absolute episode index, so a resumed run keeps the
	// original schedule.
	CheckpointEvery int
	// Resume loads CheckpointPath and continues the run it describes —
	// same ε schedule, same episode sequence, bitwise-equal to never having
	// stopped. A missing checkpoint file starts fresh (so "always pass
	// -resume" is safe for restartable jobs); a corrupt one fails.
	Resume bool
	// RunID stamps journal events for cross-run comparison; defaults to
	// "train-<seed>".
	RunID string
}

// Train learns the mitigation policy ψ* on the given scenario instances
// (the paper trains on the highest-average-STI accident scenario of each
// typology) with the supplied ADS in the loop. makeDriver must return a
// fresh (or resettable) Driver; it is invoked once per episode worker.
func Train(scns []scenario.Scenario, makeDriver func() sim.Driver, cfg Config, episodes int) (*SMC, TrainResult, error) {
	return TrainContext(context.Background(), scns, makeDriver, cfg, episodes, TrainOptions{})
}

// TrainContext is Train with cancellation and checkpoint/resume: on ctx
// cancellation it stops at the next episode boundary, writes a final
// checkpoint (when configured) and returns the partial result with
// Interrupted set and a nil error. cfg.EpisodeWorkers selects the engine:
// 1 is the serial loop, N>1 the pipelined worker pool (see DESIGN.md §13).
func TrainContext(ctx context.Context, scns []scenario.Scenario, makeDriver func() sim.Driver, cfg Config, episodes int, opts TrainOptions) (*SMC, TrainResult, error) {
	var res TrainResult
	if err := cfg.Validate(); err != nil {
		return nil, res, err
	}
	if len(scns) == 0 {
		return nil, res, fmt.Errorf("smc: no training scenarios")
	}
	if episodes < 1 {
		return nil, res, fmt.Errorf("smc: episodes must be >= 1, got %d", episodes)
	}
	if opts.Resume && opts.CheckpointPath == "" {
		return nil, res, fmt.Errorf("smc: resume requested without a checkpoint path")
	}
	workers := cfg.EpisodeWorkers
	if workers < 1 {
		workers = 1
	}
	if opts.RunID == "" {
		opts.RunID = fmt.Sprintf("train-%d", cfg.DDQN.Seed)
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 25
	}

	run := &trainRun{cfg: cfg, opts: opts, scns: scns, episodes: episodes, workers: workers}
	if opts.Resume {
		if _, err := os.Stat(opts.CheckpointPath); err == nil {
			ck, err := LoadCheckpoint(opts.CheckpointPath)
			if err != nil {
				return nil, res, err
			}
			if err := run.restore(ck, &res); err != nil {
				return nil, res, err
			}
		} else if !os.IsNotExist(err) {
			return nil, res, fmt.Errorf("smc: stat checkpoint: %w", err)
		}
	}
	if run.learner == nil {
		learner, err := rl.NewDDQN(cfg.FeatureDim(), len(cfg.Actions), cfg.DDQN)
		if err != nil {
			return nil, res, err
		}
		run.learner = learner
	}
	res.StartEpisode = run.start
	telEpisodeWorkers.Set(float64(workers))

	if run.start < episodes {
		var err error
		if workers == 1 {
			err = run.serial(ctx, makeDriver, &res)
		} else {
			err = run.parallel(ctx, makeDriver, &res)
		}
		if err != nil {
			return nil, res, err
		}
	}
	res.Episodes = len(res.EpisodeRewards)
	res.FinalEpsilon = run.learner.Epsilon()

	final, err := New(cfg, run.learner.Policy())
	if err != nil {
		return nil, res, err
	}
	return final, res, nil
}

// trainRun carries the state shared by the serial and parallel engines.
type trainRun struct {
	cfg      Config
	opts     TrainOptions
	scns     []scenario.Scenario
	episodes int
	workers  int

	learner *rl.DDQN
	start   int // first episode to execute (resume offset)
	// inflight is the parallel engine's acting-snapshot ring restored from
	// a checkpoint: learner snapshots S_k (state after consuming episodes
	// [0,k)) still needed by episodes that were in flight.
	inflight map[int]*actingSnap
}

// actingSnap pins the (policy, ε) pair an episode acts from in the
// pipelined engine.
type actingSnap struct {
	episode int
	epsilon float64
	policy  *rl.Policy
}

// restore loads a checkpoint into the run, validating that it belongs to
// this configuration.
func (r *trainRun) restore(ck *Checkpoint, res *TrainResult) error {
	if ck.Seed != r.cfg.DDQN.Seed {
		return fmt.Errorf("smc: checkpoint seed %d does not match config seed %d", ck.Seed, r.cfg.DDQN.Seed)
	}
	if ck.Workers != r.workers {
		return fmt.Errorf("smc: checkpoint was taken with %d episode workers, run configured for %d", ck.Workers, r.workers)
	}
	learner, err := rl.RestoreDDQN(len(r.cfg.Actions), r.cfg.DDQN, ck.Learner)
	if err != nil {
		return err
	}
	r.learner = learner
	r.start = ck.NextEpisode
	res.EpisodeRewards = append([]float64(nil), ck.Rewards...)
	res.Collisions = ck.Collisions
	if r.workers > 1 {
		r.inflight = make(map[int]*actingSnap, len(ck.Inflight))
		for _, s := range ck.Inflight {
			r.inflight[s.Episode] = &actingSnap{episode: s.Episode, epsilon: s.Epsilon, policy: s.Policy}
		}
		if _, ok := r.inflight[snapKey(r.start, r.workers)]; !ok && r.start < r.episodes {
			return fmt.Errorf("smc: checkpoint lacks the acting snapshot for episode %d", r.start)
		}
	}
	return nil
}

// snapKey is the acting-snapshot index for an episode under the pipelined
// schedule: episode ep acts from S_{max(0, ep-W+1)}, the newest snapshot
// the W-deep pipeline guarantees is published before ep can be dispatched.
// It is a pure function of the episode index, which is what makes the
// parallel engine's transition stream independent of worker scheduling.
func snapKey(ep, workers int) int {
	return max(0, ep-workers+1)
}

// checkpoint writes the run state after `done` consumed episodes; snaps is
// nil for the serial engine.
func (r *trainRun) checkpoint(done int, res *TrainResult, snaps map[int]*actingSnap) error {
	if r.opts.CheckpointPath == "" {
		return nil
	}
	ck := &Checkpoint{
		Version:     checkpointVersion,
		RunID:       r.opts.RunID,
		Seed:        r.cfg.DDQN.Seed,
		Workers:     r.workers,
		NextEpisode: done,
		Rewards:     res.EpisodeRewards,
		Collisions:  res.Collisions,
		Learner:     r.learner.State(),
	}
	for _, s := range snaps {
		ck.Inflight = append(ck.Inflight, actingSnapshot{Episode: s.episode, Epsilon: s.epsilon, Policy: s.policy})
	}
	start := time.Now()
	bytes, err := saveCheckpoint(r.opts.CheckpointPath, ck)
	if err != nil {
		return err
	}
	if telemetry.JournalActive() {
		telemetry.Emit("smc.checkpoint", map[string]any{
			"run_id":       r.opts.RunID,
			"seed":         r.cfg.DDQN.Seed,
			"next_episode": done,
			"workers":      r.workers,
			"path":         r.opts.CheckpointPath,
			"bytes":        bytes,
			"seconds":      time.Since(start).Seconds(),
		})
	}
	return nil
}

// checkpointDue reports whether the cadence fires after `done` consumed
// episodes (absolute index, so resumed runs keep the original schedule).
func (r *trainRun) checkpointDue(done int) bool {
	return r.opts.CheckpointPath != "" && (done%r.opts.CheckpointEvery == 0 || done == r.episodes)
}

// record folds one finished episode into the result and telemetry.
func (r *trainRun) record(ep, worker int, scn scenario.Scenario, st episodeStats, elapsed time.Duration, res *TrainResult) {
	res.EpisodeRewards = append(res.EpisodeRewards, st.reward)
	if st.collided {
		res.Collisions++
		telTrainCollide.Inc()
	}
	eps := r.learner.Epsilon()
	stepsPerSec := 0.0
	if s := elapsed.Seconds(); s > 0 {
		stepsPerSec = float64(st.steps) / s
	}
	telEpisodes.Inc()
	telEpisodeSeconds.Observe(elapsed.Seconds())
	telReward.Set(st.reward)
	telEpsilon.Set(eps)
	telLoss.Set(st.meanLoss())
	telStepsPerSec.Set(stepsPerSec)
	if telemetry.JournalActive() {
		telemetry.Emit("smc.episode", map[string]any{
			"run_id":        r.opts.RunID,
			"seed":          r.cfg.DDQN.Seed,
			"episode":       ep,
			"worker":        worker,
			"scenario":      scn.ID,
			"reward":        st.reward,
			"epsilon":       eps,
			"loss":          st.meanLoss(),
			"steps":         st.steps,
			"steps_per_sec": stepsPerSec,
			"collided":      st.collided,
			"seconds":       elapsed.Seconds(),
		})
	}
}

// serial is the historical training loop: one driver, the learner consulted
// inline at every decision. Its learner call sequence — and therefore every
// weight, ε and reward — is bitwise-identical to the pre-pipeline trainer;
// context checks and checkpoint writes only read state between episodes.
func (r *trainRun) serial(ctx context.Context, makeDriver func() sim.Driver, res *TrainResult) error {
	trainer := &episodeRunner{
		cfg: r.cfg,
		act: func(state []float64) int { return r.learner.SelectAction(state, true) },
		observe: func(t rl.Transition) float64 {
			telQueueDepth.Observe(1)
			return r.learner.Observe(t)
		},
	}
	var err error
	if trainer.smc, err = New(r.cfg, r.learner.Policy()); err != nil {
		return err
	}
	driver := makeDriver()

	for ep := r.start; ep < r.episodes; ep++ {
		if ctx.Err() != nil {
			res.Interrupted = true
			return r.checkpoint(ep, res, nil)
		}
		scn := r.scns[ep%len(r.scns)]
		w, err := scn.Build()
		if err != nil {
			return fmt.Errorf("smc: build episode %d: %w", ep, err)
		}
		start := time.Now()
		st, err := trainer.runEpisode(w, driver, scn.MaxSteps)
		if err != nil {
			return err
		}
		r.record(ep, 0, scn, st, time.Since(start), res)
		if r.checkpointDue(ep + 1) {
			if err := r.checkpoint(ep+1, res, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// episodeJob hands one episode to a worker: the episode index (which fixes
// the scenario and the exploration RNG) and the pinned acting snapshot.
type episodeJob struct {
	ep   int
	snap *actingSnap
	res  chan<- episodeResult
}

// episodeResult is a finished episode travelling back to the learner.
type episodeResult struct {
	ep          int
	worker      int
	stats       episodeStats
	transitions []rl.Transition
	elapsed     time.Duration
	err         error
}

// parallel is the pipelined engine: W workers simulate episodes against
// frozen policy snapshots while the coordinator consumes finished episodes
// strictly in episode order, feeding every transition to the single
// learner. Episode ep acts from snapshot S_{snapKey(ep)} with an
// exploration RNG derived from (seed, ep), so the transition stream the
// learner sees is a pure function of the configuration — run-to-run
// deterministic regardless of worker scheduling — and a checkpoint carrying
// the live snapshot ring resumes bitwise-exactly.
func (r *trainRun) parallel(ctx context.Context, makeDriver func() sim.Driver, res *TrainResult) error {
	base, err := New(r.cfg, r.learner.Policy())
	if err != nil {
		return err
	}

	jobs := make(chan episodeJob)
	var wg sync.WaitGroup
	for i := 0; i < r.workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.worker(id, makeDriver, base, jobs)
		}(i)
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	snaps := r.inflight
	if snaps == nil {
		// Fresh start: every episode in the first window acts from S_0.
		snaps = map[int]*actingSnap{0: {episode: 0, epsilon: r.learner.Epsilon(), policy: r.learner.Policy()}}
	}
	pending := make(map[int]chan episodeResult, r.workers)
	next := r.start // next episode to dispatch

	for c := r.start; c < r.episodes; c++ {
		if ctx.Err() != nil {
			res.Interrupted = true
		}
		if !res.Interrupted {
			for next < r.episodes && next < c+r.workers {
				ch := make(chan episodeResult, 1)
				pending[next] = ch
				jobs <- episodeJob{ep: next, snap: snaps[snapKey(next, r.workers)], res: ch}
				next++
			}
		}
		if c == next {
			// Interrupted with nothing left in flight.
			return r.checkpoint(c, res, snaps)
		}
		telQueueDepth.Observe(float64(next - c))
		rr := <-pending[c]
		delete(pending, c)
		if rr.err != nil {
			return rr.err
		}
		// The learner consumes the episode's transitions in simulation
		// order; losses are attributed here because in the pipelined
		// schedule updates happen at consume time, not act time.
		st := rr.stats
		st.lossSum, st.lossN = 0, 0
		for _, tr := range rr.transitions {
			if loss := r.learner.Observe(tr); loss != 0 {
				st.lossSum += loss
				st.lossN++
			}
		}
		r.record(c, rr.worker, r.scns[c%len(r.scns)], st, rr.elapsed, res)

		done := c + 1
		snaps[done] = &actingSnap{episode: done, epsilon: r.learner.Epsilon(), policy: r.learner.Policy()}
		for k := range snaps {
			if k < snapKey(done, r.workers) {
				delete(snaps, k)
			}
		}
		if r.checkpointDue(done) || (res.Interrupted && done == next) {
			if err := r.checkpoint(done, res, snaps); err != nil {
				return err
			}
		}
		if res.Interrupted && done == next {
			return nil
		}
	}
	return nil
}

// worker runs episodes from the job channel: pure simulation + STI scoring
// against the job's frozen snapshot, no shared mutable state. Each worker
// owns a driver and an SMC clone with its own decision state (the evaluator
// itself is concurrency-safe).
func (r *trainRun) worker(id int, makeDriver func() sim.Driver, base *SMC, jobs <-chan episodeJob) {
	driver := makeDriver()
	runner := &episodeRunner{cfg: r.cfg, smc: base.CloneForRun()}
	for job := range jobs {
		scn := r.scns[job.ep%len(r.scns)]
		w, err := scn.Build()
		if err != nil {
			job.res <- episodeResult{ep: job.ep, worker: id, err: fmt.Errorf("smc: build episode %d: %w", job.ep, err)}
			continue
		}
		rng := rand.New(rand.NewSource(episodeSeed(r.cfg.DDQN.Seed, job.ep)))
		var trans []rl.Transition
		runner.act = func(state []float64) int {
			return job.snap.policy.ActEpsilonGreedy(state, job.snap.epsilon, rng, len(r.cfg.Actions))
		}
		runner.observe = func(t rl.Transition) float64 {
			trans = append(trans, t)
			return 0
		}
		start := time.Now()
		st, err := runner.runEpisode(w, driver, scn.MaxSteps)
		job.res <- episodeResult{ep: job.ep, worker: id, stats: st, transitions: trans, elapsed: time.Since(start), err: err}
	}
}

// episodeSeed derives the exploration stream for one episode from the root
// seed and the absolute episode index (splitmix64), so streams are
// independent across episodes and identical across runs and resumes.
func episodeSeed(root int64, ep int) int64 {
	z := uint64(root) + uint64(ep+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative; rand.NewSource takes any int64 but keep it tidy
}

// episodeRunner holds the pieces shared across training episodes: the
// configuration, the action/observation hooks (inline learner calls for the
// serial engine, snapshot acting + transition capture for workers) and an
// SMC used only for its STI evaluator.
type episodeRunner struct {
	cfg     Config
	act     func(state []float64) int
	observe func(t rl.Transition) float64
	smc     *SMC // used only for its STI evaluator
}

// episodeStats summarises one training episode for TrainResult and the
// telemetry journal.
type episodeStats struct {
	reward   float64
	steps    int // simulator steps advanced
	lossSum  float64
	lossN    int // learner updates that actually ran
	collided bool
}

// meanLoss returns the mean D-DQN training loss over the episode's updates
// (0 during the replay warm-up, when no update runs).
func (s episodeStats) meanLoss() float64 {
	if s.lossN == 0 {
		return 0
	}
	return s.lossSum / float64(s.lossN)
}

// runEpisode plays one episode with ε-greedy exploration, pushing every
// DecisionStride-spaced transition through the observe hook.
func (t *episodeRunner) runEpisode(w *sim.World, driver sim.Driver, maxSteps int) (episodeStats, error) {
	var st episodeStats
	driver.Reset()
	for _, b := range w.Behaviors {
		b.Reset()
	}
	if maxSteps <= 0 {
		maxSteps = 400
	}
	obs := w.Observe()
	stiNow := t.smc.currentSTI(obs)
	state := featurize(obs, stiNow, t.cfg)

	for step := 0; step < maxSteps; step += t.cfg.DecisionStride {
		aIdx := t.act(state)
		action := t.cfg.Actions[aIdx]

		// Hold the decision for DecisionStride simulator steps.
		var ev sim.Events
		collided := false
		progress := 0.0
		before := obs.Ego.Pos
		for k := 0; k < t.cfg.DecisionStride; k++ {
			stepObs := w.Observe()
			control := applyAction(action, stepObs, driver.Act(stepObs))
			ev = w.Advance(control)
			st.steps++
			if ev.EgoCollision {
				collided = true
				break
			}
		}
		next := w.Observe()
		progress = next.Ego.Pos.Sub(before).Dot(goalDir(next))

		stiNext := t.smc.currentSTI(next)
		reward := t.reward(action, stiNext, progress, next)
		if collided {
			// A collision is the terminal safety violation: the escape
			// routes are gone, and distance covered while crashing is not
			// path completion.
			stiNext = 1
			reward = t.reward(action, 1, 0, next)
		}
		done := collided || next.Ego.Pos.X >= w.Goal.X || step+t.cfg.DecisionStride >= maxSteps
		nextState := featurize(next, stiNext, t.cfg)
		if loss := t.observe(rl.Transition{
			State:  state,
			Action: aIdx,
			Reward: reward,
			Next:   nextState,
			Done:   done,
		}); loss != 0 {
			st.lossSum += loss
			st.lossN++
		}
		st.reward += reward
		state = nextState
		obs = next
		if done {
			st.collided = collided
			return st, nil
		}
	}
	return st, nil
}

// reward implements Eq. 8; the α0 term is dropped for the w/o-STI ablation.
func (t *episodeRunner) reward(a Action, stiVal, progress float64, obs sim.Observation) float64 {
	r := 0.0
	if t.cfg.UseSTI {
		r += t.cfg.Alpha0 * (1 - stiVal)
	}
	// Path completion, normalised by the distance an ego at cruise speed
	// covers per decision.
	ideal := obs.EgoParams.MaxSpeed * obs.Dt * float64(t.cfg.DecisionStride)
	if ideal > 0 {
		r += t.cfg.Alpha1 * clampF(progress/ideal, -1, 1)
	}
	if a != NoOp {
		r -= t.cfg.Alpha2
	}
	return r
}

// goalDir is the unit direction towards the goal; degenerate goals (the
// ring road's unbounded goal) fall back to the ego heading.
func goalDir(obs sim.Observation) geom.Vec2 {
	to := obs.Goal.Sub(obs.Ego.Pos)
	if math.IsInf(to.X, 0) || math.IsInf(to.Y, 0) || to.Norm() < 1e-9 {
		sin, cos := math.Sincos(obs.Ego.Heading)
		return geom.V(cos, sin)
	}
	return to.Unit()
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
