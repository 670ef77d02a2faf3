package rl

import (
	"fmt"
	"math/rand"
)

// DDQNConfig parameterises the Double-DQN trainer.
type DDQNConfig struct {
	Hidden        []int   // hidden layer sizes
	Gamma         float64 // discount factor
	LR            float64 // Adam learning rate
	BatchSize     int
	ReplayCap     int
	WarmUp        int     // transitions before training starts
	TargetSync    int     // training steps between target-network syncs
	EpsStart      float64 // initial exploration rate
	EpsEnd        float64 // final exploration rate
	EpsDecaySteps int     // linear decay horizon in environment steps
	Seed          int64
}

// DefaultDDQNConfig returns the configuration used for SMC training.
func DefaultDDQNConfig() DDQNConfig {
	return DDQNConfig{
		Hidden:        []int{64, 64},
		Gamma:         0.95,
		LR:            1e-3,
		BatchSize:     32,
		ReplayCap:     20000,
		WarmUp:        200,
		TargetSync:    250,
		EpsStart:      1.0,
		EpsEnd:        0.05,
		EpsDecaySteps: 5000,
		Seed:          1,
	}
}

// DDQN is a Double-DQN learner: the online network selects the best next
// action, the target network evaluates it — decoupling selection from
// evaluation to curb Q-value over-estimation (van Hasselt et al. [47]).
type DDQN struct {
	cfg     DDQNConfig
	online  *MLP
	target  *MLP
	replay  *Replay
	rng     *rand.Rand
	src     *countedSource
	actions int

	envSteps   int
	trainSteps int

	// Training scratch, owned by the learner and reused by every step.
	// All but fwd are allocated by the first step.
	train   *trainBuf
	fwd     []float64 // one forward pass's activations
	inputs  [][]float64
	acted   []int
	targets []float64

	// tq memoises target.Forward(Next) of replay slot s in
	// tq[s*actions:(s+1)*actions], valid while tqOK[s]. Overwriting the
	// slot and syncing the target network invalidate it. It is derived
	// state: checkpoints omit it and a restored learner starts it empty.
	tq   []float64
	tqOK []bool
}

// countedSource wraps the learner's seeded source and counts every draw, so
// a checkpoint can record the exact RNG position as (seed, draws) and resume
// by fast-forwarding. It deliberately implements only rand.Source (not
// Source64): rand.Rand then derives every method the learner uses (Float64,
// Intn) from Int63 alone, which keeps the value stream bit-identical to the
// unwrapped rand.NewSource the learner has always trained on.
type countedSource struct {
	src   rand.Source
	draws uint64
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// NewDDQN builds a learner for the given state/action dimensions.
func NewDDQN(stateDim, actions int, cfg DDQNConfig) (*DDQN, error) {
	if stateDim < 1 || actions < 2 {
		return nil, fmt.Errorf("rl: invalid dimensions state=%d actions=%d", stateDim, actions)
	}
	sizes := append(append([]int{stateDim}, cfg.Hidden...), actions)
	online, err := NewMLP(sizes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	src := &countedSource{src: rand.NewSource(cfg.Seed)}
	return newDDQN(cfg, online, online.Clone(), NewReplay(cfg.ReplayCap), src, actions), nil
}

// newDDQN assembles a learner. Its training scratch and target-Q memo are
// allocated by the first training step, so a learner that never trains
// (a run cancelled before its warm-up ends) pays nothing for them.
func newDDQN(cfg DDQNConfig, online, target *MLP, replay *Replay, src *countedSource, actions int) *DDQN {
	return &DDQN{
		cfg:     cfg,
		online:  online,
		target:  target,
		replay:  replay,
		rng:     rand.New(src),
		src:     src,
		actions: actions,
		fwd:     make([]float64, online.actLen()),
	}
}

// Epsilon returns the current exploration rate.
func (d *DDQN) Epsilon() float64 {
	if d.cfg.EpsDecaySteps <= 0 {
		return d.cfg.EpsEnd
	}
	frac := float64(d.envSteps) / float64(d.cfg.EpsDecaySteps)
	if frac > 1 {
		frac = 1
	}
	return d.cfg.EpsStart + (d.cfg.EpsEnd-d.cfg.EpsStart)*frac
}

// SelectAction picks an ε-greedy action during training (explore=true) or
// the greedy action at inference (explore=false).
func (d *DDQN) SelectAction(state []float64, explore bool) int {
	if explore && d.rng.Float64() < d.Epsilon() {
		return d.rng.Intn(d.actions)
	}
	return argmax(d.online.forward(state, d.fwd))
}

// Q returns the online network's Q-values for a state.
func (d *DDQN) Q(state []float64) []float64 { return d.online.Forward(state) }

// Observe records a transition and runs one training step once warm.
// It returns the training loss (0 when no step ran). The replay keeps t's
// slices, so the caller must not modify them afterwards.
func (d *DDQN) Observe(t Transition) float64 {
	if slot := d.replay.Add(t); slot < len(d.tqOK) {
		d.tqOK[slot] = false
	}
	d.envSteps++
	if d.replay.Len() < d.cfg.WarmUp {
		return 0
	}
	return d.trainStep()
}

// trainStep draws a batch uniformly with replacement (one rng.Intn per
// sample), builds its Double-DQN targets and takes one Adam step.
func (d *DDQN) trainStep() float64 {
	if d.train == nil {
		batch, slots := max(d.cfg.BatchSize, 0), d.replay.size
		d.train = newTrainBuf(d.online)
		d.inputs, d.acted, d.targets = make([][]float64, batch), make([]int, batch), make([]float64, batch)
		d.tq, d.tqOK = make([]float64, slots*d.actions), make([]bool, slots)
	}
	for i := range d.inputs {
		slot := d.rng.Intn(d.replay.Len())
		tr := &d.replay.buf[slot]
		d.inputs[i] = tr.State
		d.acted[i] = tr.Action
		y := tr.Reward
		if !tr.Done {
			// Double-DQN target: online net selects, target net evaluates.
			best := argmax(d.online.forward(tr.Next, d.fwd))
			y += d.cfg.Gamma * d.targetQ(slot)[best]
		}
		d.targets[i] = y
	}
	loss := d.online.trainTargets(d.train, d.inputs, d.acted, d.targets, d.cfg.LR)
	d.trainSteps++
	if d.cfg.TargetSync > 0 && d.trainSteps%d.cfg.TargetSync == 0 {
		d.target.CopyWeightsFrom(d.online)
		clear(d.tqOK)
	}
	return loss
}

// targetQ returns the target network's Q-values of replay slot's Next
// state, from the memo when the slot and the target are unchanged since
// they were computed.
func (d *DDQN) targetQ(slot int) []float64 {
	q := d.tq[slot*d.actions:][:d.actions]
	if !d.tqOK[slot] {
		copy(q, d.target.forward(d.replay.buf[slot].Next, d.fwd))
		d.tqOK[slot] = true
	}
	return q
}

// Policy freezes the current online network into an inference-only policy.
func (d *DDQN) Policy() *Policy {
	return &Policy{net: d.online.Clone()}
}

// Policy is a frozen greedy policy over a trained Q-network.
type Policy struct {
	net *MLP
}

// Act returns the greedy action for a state.
func (p *Policy) Act(state []float64) int { return argmax(p.net.Forward(state)) }

// ActEpsilonGreedy returns an ε-greedy action drawn from the caller's RNG,
// mirroring SelectAction's draw order (one Float64, then Intn only on the
// explore branch). Parallel episode workers act from a frozen policy with
// the ε and RNG pinned at episode-dispatch time, which is what makes the
// pipelined schedule reproducible.
func (p *Policy) ActEpsilonGreedy(state []float64, eps float64, rng *rand.Rand, actions int) int {
	if rng.Float64() < eps {
		return rng.Intn(actions)
	}
	return argmax(p.net.Forward(state))
}

// Q returns the Q-values for a state.
func (p *Policy) Q(state []float64) []float64 { return p.net.Forward(state) }

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
