package rl

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP([]int{4}, 1); err == nil {
		t.Error("single-layer spec accepted")
	}
	if _, err := NewMLP([]int{4, 0, 2}, 1); err == nil {
		t.Error("zero-width layer accepted")
	}
	if _, err := NewMLP([]int{4, 8, 2}, 1); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestMustNewMLPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewMLP should panic")
		}
	}()
	MustNewMLP([]int{1}, 0)
}

func TestMLPDims(t *testing.T) {
	m := MustNewMLP([]int{5, 8, 3}, 1)
	if m.InputDim() != 5 || m.OutputDim() != 3 {
		t.Errorf("dims = %d %d", m.InputDim(), m.OutputDim())
	}
	out := m.Forward([]float64{1, 2, 3, 4, 5})
	if len(out) != 3 {
		t.Errorf("output size = %d", len(out))
	}
}

func TestMLPDeterministicSeed(t *testing.T) {
	a := MustNewMLP([]int{3, 6, 2}, 7)
	b := MustNewMLP([]int{3, 6, 2}, 7)
	x := []float64{0.5, -1, 2}
	oa, ob := a.Forward(x), b.Forward(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed should give identical networks")
		}
	}
	c := MustNewMLP([]int{3, 6, 2}, 8)
	oc := c.Forward(x)
	if oa[0] == oc[0] && oa[1] == oc[1] {
		t.Error("different seeds should differ")
	}
}

func TestMLPLearnsRegression(t *testing.T) {
	// Fit f(x) = [x0+x1, x0-x1] on the selected-output loss.
	m := MustNewMLP([]int{2, 16, 2}, 3)
	rng := rand.New(rand.NewSource(5))
	var lastLoss float64
	for epoch := 0; epoch < 600; epoch++ {
		inputs := make([][]float64, 16)
		actions := make([]int, 16)
		targets := make([]float64, 16)
		for i := range inputs {
			x0, x1 := rng.Float64()*2-1, rng.Float64()*2-1
			inputs[i] = []float64{x0, x1}
			actions[i] = i % 2
			if actions[i] == 0 {
				targets[i] = x0 + x1
			} else {
				targets[i] = x0 - x1
			}
		}
		lastLoss = m.TrainTargets(inputs, actions, targets, 3e-3)
	}
	if lastLoss > 0.05 {
		t.Errorf("final loss = %v, want < 0.05", lastLoss)
	}
	out := m.Forward([]float64{0.3, 0.2})
	if math.Abs(out[0]-0.5) > 0.2 || math.Abs(out[1]-0.1) > 0.2 {
		t.Errorf("prediction = %v, want ~[0.5, 0.1]", out)
	}
}

func TestMLPTrainEmptyBatch(t *testing.T) {
	m := MustNewMLP([]int{2, 4, 2}, 1)
	if got := m.TrainTargets(nil, nil, nil, 0.01); got != 0 {
		t.Errorf("empty batch loss = %v", got)
	}
}

func TestMLPCloneIndependent(t *testing.T) {
	m := MustNewMLP([]int{2, 4, 2}, 1)
	c := m.Clone()
	x := []float64{1, -1}
	before := c.Forward(x)
	// Train the original heavily; the clone must not move.
	for i := 0; i < 50; i++ {
		m.TrainTargets([][]float64{x}, []int{0}, []float64{10}, 0.01)
	}
	after := c.Forward(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("clone shares weights with original")
		}
	}
	// CopyWeightsFrom re-syncs.
	c.CopyWeightsFrom(m)
	synced := c.Forward(x)
	trained := m.Forward(x)
	for i := range synced {
		if synced[i] != trained[i] {
			t.Fatal("CopyWeightsFrom did not sync")
		}
	}
}

func TestReplayRingBuffer(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(Transition{Action: i})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	// Oldest two evicted: remaining actions are 2, 3, 4 in some slots.
	seen := map[int]bool{}
	for _, tr := range r.buf {
		seen[tr.Action] = true
	}
	for _, a := range []int{2, 3, 4} {
		if !seen[a] {
			t.Errorf("action %d missing after eviction", a)
		}
	}
	if seen[0] || seen[1] {
		t.Error("evicted transitions still present")
	}
}

func TestReplayCapacityFloor(t *testing.T) {
	r := NewReplay(0)
	r.Add(Transition{})
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestDDQNValidation(t *testing.T) {
	if _, err := NewDDQN(0, 3, DefaultDDQNConfig()); err == nil {
		t.Error("zero state dim accepted")
	}
	if _, err := NewDDQN(4, 1, DefaultDDQNConfig()); err == nil {
		t.Error("single action accepted")
	}
}

func TestDDQNEpsilonDecay(t *testing.T) {
	cfg := DefaultDDQNConfig()
	cfg.EpsStart, cfg.EpsEnd, cfg.EpsDecaySteps = 1.0, 0.1, 100
	cfg.WarmUp = 1 << 30 // disable training for this test
	d, err := NewDDQN(2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Epsilon(); got != 1.0 {
		t.Errorf("initial epsilon = %v", got)
	}
	for i := 0; i < 50; i++ {
		d.Observe(Transition{State: []float64{0, 0}, Next: []float64{0, 0}})
	}
	if got := d.Epsilon(); math.Abs(got-0.55) > 1e-9 {
		t.Errorf("mid epsilon = %v, want 0.55", got)
	}
	for i := 0; i < 200; i++ {
		d.Observe(Transition{State: []float64{0, 0}, Next: []float64{0, 0}})
	}
	if got := d.Epsilon(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("final epsilon = %v, want 0.1", got)
	}
}

func TestDDQNEpsilonNoDecayConfig(t *testing.T) {
	cfg := DefaultDDQNConfig()
	cfg.EpsDecaySteps = 0
	cfg.EpsEnd = 0.2
	d, err := NewDDQN(2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Epsilon(); got != 0.2 {
		t.Errorf("epsilon = %v, want EpsEnd", got)
	}
}

// A tiny two-state MDP: state [1,0] → action 1 gives reward 1, action 0
// gives 0; state [0,1] → the reverse. D-DQN must learn the optimal policy.
func TestDDQNSolvesContextualBandit(t *testing.T) {
	cfg := DefaultDDQNConfig()
	cfg.Hidden = []int{16}
	cfg.WarmUp = 32
	cfg.BatchSize = 16
	cfg.EpsDecaySteps = 400
	cfg.LR = 5e-3
	cfg.Seed = 9
	d, err := NewDDQN(2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	states := [][]float64{{1, 0}, {0, 1}}
	for i := 0; i < 1500; i++ {
		s := states[rng.Intn(2)]
		a := d.SelectAction(s, true)
		r := 0.0
		if (s[0] == 1 && a == 1) || (s[1] == 1 && a == 0) {
			r = 1
		}
		d.Observe(Transition{State: s, Action: a, Reward: r, Next: s, Done: true})
	}
	p := d.Policy()
	if p.Act(states[0]) != 1 {
		t.Errorf("policy([1,0]) = %d, want 1; Q=%v", p.Act(states[0]), p.Q(nil, states[0]))
	}
	if p.Act(states[1]) != 0 {
		t.Errorf("policy([0,1]) = %d, want 0; Q=%v", p.Act(states[1]), p.Q(nil, states[1]))
	}
}

// A 3-step chain MDP where the reward only arrives at the end: tests that
// bootstrapping propagates value backwards (γ > 0 path).
func TestDDQNLearnsDelayedReward(t *testing.T) {
	cfg := DefaultDDQNConfig()
	cfg.Hidden = []int{24}
	cfg.WarmUp = 64
	cfg.EpsDecaySteps = 2000
	cfg.LR = 3e-3
	cfg.TargetSync = 100
	cfg.Seed = 5
	d, err := NewDDQN(3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oneHot := func(i int) []float64 {
		s := make([]float64, 3)
		s[i] = 1
		return s
	}
	// Chain: s0 -a1-> s1 -a1-> s2 -a1-> terminal(+1); action 0 anywhere
	// terminates with 0 reward.
	for ep := 0; ep < 900; ep++ {
		pos := 0
		for {
			s := oneHot(pos)
			a := d.SelectAction(s, true)
			if a == 0 {
				d.Observe(Transition{State: s, Action: 0, Reward: 0, Next: s, Done: true})
				break
			}
			if pos == 2 {
				d.Observe(Transition{State: s, Action: 1, Reward: 1, Next: s, Done: true})
				break
			}
			next := oneHot(pos + 1)
			d.Observe(Transition{State: s, Action: 1, Reward: 0, Next: next, Done: false})
			pos++
		}
	}
	p := d.Policy()
	for pos := 0; pos < 3; pos++ {
		if got := p.Act(oneHot(pos)); got != 1 {
			t.Errorf("policy(s%d) = %d, want 1 (Q=%v)", pos, got, p.Q(nil, oneHot(pos)))
		}
	}
	// Value should decay along the chain: Q(s2,1) > Q(s0,1).
	if p.Q(nil, oneHot(2))[1] <= p.Q(nil, oneHot(0))[1] {
		t.Errorf("value did not decay with distance to reward: %v vs %v",
			p.Q(nil, oneHot(2))[1], p.Q(nil, oneHot(0))[1])
	}
}

func TestArgmax(t *testing.T) {
	if got := argmax([]float64{1, 3, 2}); got != 1 {
		t.Errorf("argmax = %d", got)
	}
	if got := argmax([]float64{-5}); got != 0 {
		t.Errorf("argmax single = %d", got)
	}
	// Ties resolve to the first maximum.
	if got := argmax([]float64{2, 2}); got != 0 {
		t.Errorf("argmax tie = %d", got)
	}
}

// An agent decision from a frozen policy allocates nothing at the SMC's
// 24→64→64→3 network, and episode workers sharing one policy snapshot get
// exactly the answers a lone caller gets (run under -race, this also shows
// the shared policy is only read).
func TestPolicyDecisionsAllocationFree(t *testing.T) {
	const dim, actions = 24, 3
	d, err := NewDDQN(dim, actions, DefaultDDQNConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := d.Policy()
	states := synthTransitions(3, 64, dim)
	wantAct := make([]int, len(states))
	wantQ := make([][]float64, len(states))
	for i, tr := range states {
		wantAct[i], wantQ[i] = p.Act(tr.State), p.Q(nil, tr.State)
		if got := argmax(d.online.Forward(tr.State)); got != wantAct[i] {
			t.Fatalf("state %d: policy acts %d, its network's argmax is %d", i, wantAct[i], got)
		}
	}

	x := states[0].State
	rng := rand.New(rand.NewSource(1))
	q := make([]float64, 0, actions)
	if n := testing.AllocsPerRun(100, func() {
		p.Act(x)
		p.ActEpsilonGreedy(x, 0.5, rng, actions)
		q = p.Q(q[:0], x)
	}); n != 0 {
		t.Errorf("Act + ActEpsilonGreedy + Q allocate %v times per decision, want 0", n)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := make([]float64, 0, actions)
			for i, tr := range states {
				q = p.Q(q[:0], tr.State)
				if a := p.Act(tr.State); a != wantAct[i] || !slices.Equal(q, wantQ[i]) {
					t.Errorf("state %d: shared policy answered %d %v, alone %d %v", i, a, q, wantAct[i], wantQ[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
