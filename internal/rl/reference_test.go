package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The scalar learner the blocked kernels replaced, kept verbatim as the
// oracle of TestLearnerMatchesReference: one dependency chain per output
// unit, freshly allocated activations, deltas and gradients per sample, and
// a batch drawn by referenceSample.

// referenceForwardActs returns the activation of every layer (input included).
func referenceForwardActs(m *MLP, x []float64) [][]float64 {
	acts := make([][]float64, len(m.sizes))
	acts[0] = x
	for l := 0; l < len(m.weights); l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		a := make([]float64, out)
		w := m.weights[l]
		prev := acts[l]
		for j := 0; j < out; j++ {
			sum := m.biases[l][j]
			row := w[j*in : (j+1)*in]
			for i, v := range prev {
				sum += row[i] * v
			}
			if l < len(m.weights)-1 && sum < 0 {
				sum = 0 // ReLU on hidden layers
			}
			a[j] = sum
		}
		acts[l+1] = a
	}
	return acts
}

// referenceForward runs inference, returning a freshly allocated output vector.
func referenceForward(m *MLP, x []float64) []float64 {
	acts := referenceForwardActs(m, x)
	out := acts[len(acts)-1]
	cp := make([]float64, len(out))
	copy(cp, out)
	return cp
}

// referenceTrainTargets performs one Adam step of semi-gradient regression:
// for each sample, only the output unit actions[s] is regressed towards
// targets[s] (the DQN loss). It returns the mean squared error over the batch.
func referenceTrainTargets(m *MLP, inputs [][]float64, actions []int, targets []float64, lr float64) float64 {
	if len(inputs) == 0 {
		return 0
	}
	n := len(m.weights)
	gradW := make([][]float64, n)
	gradB := make([][]float64, n)
	for l := 0; l < n; l++ {
		gradW[l] = make([]float64, len(m.weights[l]))
		gradB[l] = make([]float64, len(m.biases[l]))
	}
	loss := 0.0
	for s, x := range inputs {
		acts := referenceForwardActs(m, x)
		out := acts[len(acts)-1]
		a := actions[s]
		err := out[a] - targets[s]
		loss += err * err
		// Output-layer delta: only the selected unit has gradient.
		delta := make([]float64, m.OutputDim())
		delta[a] = 2 * err / float64(len(inputs))
		for l := n - 1; l >= 0; l-- {
			in := m.sizes[l]
			prev := acts[l]
			var nextDelta []float64
			if l > 0 {
				nextDelta = make([]float64, in)
			}
			w := m.weights[l]
			for j, d := range delta {
				if d == 0 {
					continue
				}
				gradB[l][j] += d
				row := w[j*in : (j+1)*in]
				grow := gradW[l][j*in : (j+1)*in]
				for i, v := range prev {
					grow[i] += d * v
					if l > 0 {
						nextDelta[i] += d * row[i]
					}
				}
			}
			if l > 0 {
				// ReLU derivative of the hidden activation.
				for i, v := range acts[l] {
					if v <= 0 {
						nextDelta[i] = 0
					}
				}
				delta = nextDelta
			}
		}
	}
	m.adamStep(gradW, gradB, lr)
	return loss / float64(len(inputs))
}

// referenceSample draws n transitions uniformly with replacement.
func referenceSample(r *Replay, rng *rand.Rand, n int) []Transition {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]Transition, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(len(r.buf))]
	}
	return out
}

// referenceLearner drives a DDQN's networks, replay and RNG through the
// scalar code above instead of the learner's own training step.
type referenceLearner struct{ d *DDQN }

func (r referenceLearner) selectAction(state []float64, explore bool) int {
	d := r.d
	if explore && d.rng.Float64() < d.Epsilon() {
		return d.rng.Intn(d.actions)
	}
	return argmax(referenceForward(d.online, state))
}

func (r referenceLearner) observe(t Transition) float64 {
	d := r.d
	d.replay.Add(t)
	d.envSteps++
	if d.replay.Len() < d.cfg.WarmUp {
		return 0
	}
	return r.trainStep()
}

func (r referenceLearner) trainStep() float64 {
	d := r.d
	batch := referenceSample(d.replay, d.rng, d.cfg.BatchSize)
	inputs := make([][]float64, len(batch))
	actions := make([]int, len(batch))
	targets := make([]float64, len(batch))
	for i, tr := range batch {
		inputs[i] = tr.State
		actions[i] = tr.Action
		y := tr.Reward
		if !tr.Done {
			// Double-DQN target: online net selects, target net evaluates.
			best := argmax(referenceForward(d.online, tr.Next))
			y += d.cfg.Gamma * referenceForward(d.target, tr.Next)[best]
		}
		targets[i] = y
	}
	loss := referenceTrainTargets(d.online, inputs, actions, targets, d.cfg.LR)
	d.trainSteps++
	if d.cfg.TargetSync > 0 && d.trainSteps%d.cfg.TargetSync == 0 {
		d.target.CopyWeightsFrom(d.online)
	}
	return loss
}

// learnerCase is one seeded stream run through a production learner and a
// reference learner side by side.
type learnerCase struct {
	name                string
	dim, actions        int
	hidden              []int
	batch, replay, sync int
	warmUp, steps       int
	dead                bool // kill every third unit of the first hidden layer
	seed                int64
}

func learnerCases() []learnerCase {
	cases := []learnerCase{
		{name: "smc-shape-dead", dim: 24, actions: 3, hidden: []int{64, 64}, batch: 32, replay: 90, sync: 11, warmUp: 20, steps: 160, dead: true, seed: 1},
		{name: "hidden24", dim: 24, actions: 3, hidden: []int{24}, batch: 32, replay: 50, sync: 7, warmUp: 10, steps: 400, seed: 2},
		{name: "hidden7-13", dim: 5, actions: 3, hidden: []int{7, 13}, batch: 9, replay: 40, sync: 5, warmUp: 3, steps: 400, dead: true, seed: 3},
		{name: "hidden9-4-6", dim: 3, actions: 5, hidden: []int{9, 4, 6}, batch: 4, replay: 17, sync: 3, warmUp: 1, steps: 400, seed: 4},
		{name: "no-sync", dim: 1, actions: 2, hidden: []int{1}, batch: 2, replay: 5, sync: 0, warmUp: 1, steps: 200, seed: 5},
	}
	for b := 1; b <= 33; b++ {
		cases = append(cases, learnerCase{
			name: "batch", dim: 6, actions: 3, hidden: []int{5 + b%8}, batch: b,
			replay: 8 + b, sync: 1 + b%6, warmUp: 1 + b%5, steps: 60, dead: b%3 == 0, seed: int64(100 + b),
		})
	}
	return cases
}

// learnerStream draws transitions whose state entries mix unit normals
// with exact ±0 and ±1e6-scale values; each Next is the following
// transition's State, as in an episode.
func learnerStream(seed int64, n, dim, actions int) []Transition {
	rng := rand.New(rand.NewSource(seed))
	state := func() []float64 {
		s := make([]float64, dim)
		for i := range s {
			switch r := rng.Intn(10); {
			case r == 0:
				s[i] = 0
			case r == 1:
				s[i] = math.Copysign(0, -1)
			case r == 2:
				s[i] = rng.NormFloat64() * 1e6
			default:
				s[i] = rng.NormFloat64()
			}
		}
		return s
	}
	out := make([]Transition, n)
	next := state()
	for i := range out {
		cur := next
		next = state()
		out[i] = Transition{State: cur, Action: rng.Intn(actions), Reward: rng.NormFloat64(), Next: next, Done: rng.Intn(8) == 0}
	}
	return out
}

// killUnits drives every third unit of the first hidden layer to a large
// negative bias, so its ReLU stays at zero for ordinary inputs.
func killUnits(m *MLP) {
	for j := range m.biases[0] {
		if j%3 == 0 {
			m.biases[0][j] = -1e3
		}
	}
}

func runLearnerCase(t *testing.T, c learnerCase) {
	t.Helper()
	cfg := DefaultDDQNConfig()
	cfg.Hidden, cfg.BatchSize, cfg.ReplayCap, cfg.TargetSync, cfg.WarmUp = c.hidden, c.batch, c.replay, c.sync, c.warmUp
	cfg.EpsDecaySteps = c.steps
	cfg.Seed = c.seed
	prod, err := NewDDQN(c.dim, c.actions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refD, err := NewDDQN(c.dim, c.actions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.dead {
		for _, d := range []*DDQN{prod, refD} {
			killUnits(d.online)
			killUnits(d.target)
		}
	}
	ref := referenceLearner{refD}
	for step, tr := range learnerStream(c.seed, c.steps, c.dim, c.actions) {
		if a, b := prod.SelectAction(tr.State, true), ref.selectAction(tr.State, true); a != b {
			t.Fatalf("step %d: action %d, reference %d", step, a, b)
		}
		if a, b := prod.Observe(tr), ref.observe(tr); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d: loss %v, reference %v", step, a, b)
		}
		requireMLPBits(t, step, "online", prod.online, refD.online)
		requireMLPBits(t, step, "target", prod.target, refD.target)
		if prod.src.draws != refD.src.draws || prod.trainSteps != refD.trainSteps {
			t.Fatalf("step %d: rng draws/train steps %d/%d, reference %d/%d", step,
				prod.src.draws, prod.trainSteps, refD.src.draws, refD.trainSteps)
		}
	}
}

// requireMLPBits fails unless two networks hold bitwise-equal weights,
// biases, Adam moments and step counts.
func requireMLPBits(t *testing.T, step int, name string, got, want *MLP) {
	t.Helper()
	if got.adamT != want.adamT {
		t.Fatalf("step %d: %s adam step %d, reference %d", step, name, got.adamT, want.adamT)
	}
	for _, p := range []struct {
		field     string
		got, want [][]float64
	}{
		{"weights", got.weights, want.weights},
		{"biases", got.biases, want.biases},
		{"m_w", got.mW, want.mW},
		{"v_w", got.vW, want.vW},
		{"m_b", got.mB, want.mB},
		{"v_b", got.vB, want.vB},
	} {
		for l := range p.want {
			for i, w := range p.want[l] {
				if g := p.got[l][i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("step %d: %s %s[%d][%d] = %v, reference %v", step, name, p.field, l, i, g, w)
				}
			}
		}
	}
}

// The blocked kernels, the reused scratch, the inline batch draw and the
// target-Q memo must reproduce the scalar learner bitwise after every
// Observe: same actions, losses, RNG position, and online and target
// weights, biases and Adam moments.
func TestLearnerMatchesReference(t *testing.T) {
	for _, c := range learnerCases() {
		t.Run(fmt.Sprintf("%s/b%d", c.name, c.batch), func(t *testing.T) { runLearnerCase(t, c) })
	}
}

// The forward kernel alone, on widths around the blocking factor.
func TestForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sizes := range [][]int{{1, 1}, {3, 4, 5}, {7, 13, 2}, {24, 64, 64, 3}, {9, 1, 8, 6}} {
		m := MustNewMLP(sizes, int64(len(sizes)))
		killUnits(m)
		for k := 0; k < 50; k++ {
			x := learnerStream(rng.Int63(), 1, sizes[0], 2)[0].State
			got, want := m.Forward(x), referenceForward(m, x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("sizes %v: output %d = %v, reference %v", sizes, i, got[i], want[i])
				}
			}
		}
	}
}

// A zero delta is skipped, not added: with an infinite input, adding 0·Inf
// would put NaN into the weight gradients of units whose ReLU is off.
func TestTrainTargetsSkipsZeroDeltas(t *testing.T) {
	for _, sizes := range [][]int{{3, 5, 2}, {4, 6, 7, 3}} {
		got, want := MustNewMLP(sizes, 1), MustNewMLP(sizes, 1)
		inf := []float64{math.Inf(1), 1, -1, 0.5}[:sizes[0]]
		fin := []float64{0.25, -2, 3, 1}[:sizes[0]]
		inputs := [][]float64{fin, inf, fin}
		actions, targets := []int{0, 1, 1}, []float64{1, -1, 2}
		for step := 0; step < 3; step++ {
			g := got.TrainTargets(inputs, actions, targets, 1e-2)
			w := referenceTrainTargets(want, inputs, actions, targets, 1e-2)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("sizes %v step %d: loss %v, reference %v", sizes, step, g, w)
			}
			requireMLPBits(t, step, fmt.Sprint(sizes), got, want)
		}
	}
}

// FuzzLearnerVsReference runs TestLearnerMatchesReference's comparison on
// fuzzed shapes, batch sizes, ring sizes, sync periods and seeds.
func FuzzLearnerVsReference(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(0), uint8(31), uint8(40), uint8(5), uint8(23), false)
	f.Add(int64(2), uint8(7), uint8(13), uint8(0), uint8(3), uint8(1), uint8(4), true)
	f.Add(int64(3), uint8(64), uint8(64), uint8(32), uint8(90), uint8(0), uint8(24), true)
	f.Fuzz(func(t *testing.T, seed int64, h1, h2, batch, replay, sync, dim uint8, dead bool) {
		c := learnerCase{
			dim: 1 + int(dim%32), actions: 2 + int(uint64(seed)%4), hidden: []int{1 + int(h1%80)},
			batch: int(batch % 40), replay: 1 + int(replay), sync: int(sync % 12),
			warmUp: 1 + int(uint64(seed)%7), steps: 60, dead: dead, seed: seed,
		}
		if h2 > 0 {
			c.hidden = append(c.hidden, 1+int(h2%80))
		}
		runLearnerCase(t, c)
	})
}
