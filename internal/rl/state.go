package rl

import (
	"fmt"
	"math/rand"
)

// mlpState is the complete serialisable state of an MLP — unlike mlpFile
// (weights only, for deployed policies) it carries the Adam moments and step
// counter, so a restored network continues optimising exactly where the
// original stopped.
type mlpState struct {
	Sizes   []int       `json:"sizes"`
	Weights [][]float64 `json:"weights"`
	Biases  [][]float64 `json:"biases"`
	MW      [][]float64 `json:"m_w"`
	VW      [][]float64 `json:"v_w"`
	MB      [][]float64 `json:"m_b"`
	VB      [][]float64 `json:"v_b"`
	AdamT   int         `json:"adam_t"`
}

func captureMLP(m *MLP) mlpState {
	return mlpState{
		Sizes:   append([]int(nil), m.sizes...),
		Weights: copy2d(m.weights),
		Biases:  copy2d(m.biases),
		MW:      copy2d(m.mW),
		VW:      copy2d(m.vW),
		MB:      copy2d(m.mB),
		VB:      copy2d(m.vB),
		AdamT:   m.adamT,
	}
}

func restoreMLP(st mlpState) (*MLP, error) {
	m, err := NewMLP(st.Sizes, 0)
	if err != nil {
		return nil, err
	}
	for _, pair := range []struct {
		dst, src [][]float64
		name     string
	}{
		{m.weights, st.Weights, "weights"},
		{m.biases, st.Biases, "biases"},
		{m.mW, st.MW, "m_w"},
		{m.vW, st.VW, "v_w"},
		{m.mB, st.MB, "m_b"},
		{m.vB, st.VB, "v_b"},
	} {
		if len(pair.src) != len(pair.dst) {
			return nil, fmt.Errorf("rl: %s layer count mismatch: %d for %v", pair.name, len(pair.src), st.Sizes)
		}
		for l := range pair.dst {
			if len(pair.src[l]) != len(pair.dst[l]) {
				return nil, fmt.Errorf("rl: %s layer %d shape mismatch", pair.name, l)
			}
			copy(pair.dst[l], pair.src[l])
		}
	}
	m.adamT = st.AdamT
	return m, nil
}

func copy2d(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = append([]float64(nil), x...)
	}
	return out
}

// ReplayState is the serialisable state of a replay ring buffer.
type ReplayState struct {
	Cap  int          `json:"cap"`
	Buf  []Transition `json:"buf"`
	Next int          `json:"next"`
	Full bool         `json:"full"`
}

// State captures the buffer for checkpointing.
func (r *Replay) State() ReplayState {
	return ReplayState{
		Cap:  r.size,
		Buf:  append([]Transition(nil), r.buf...),
		Next: r.next,
		Full: r.full,
	}
}

// RestoreReplay rebuilds a buffer from a captured state.
func RestoreReplay(st ReplayState) (*Replay, error) {
	if st.Cap < 1 || len(st.Buf) > st.Cap || st.Next < 0 || st.Next >= st.Cap {
		return nil, fmt.Errorf("rl: invalid replay state cap=%d len=%d next=%d", st.Cap, len(st.Buf), st.Next)
	}
	return &Replay{buf: append([]Transition(nil), st.Buf...), size: st.Cap, next: st.Next, full: st.Full}, nil
}

// DDQNState is the complete serialisable state of a learner mid-training:
// both networks with optimiser moments, the replay ring, the step counters
// driving the ε schedule and target syncs, and the RNG position. Restoring
// it and continuing produces the exact transition/update stream an
// uninterrupted run would have produced.
type DDQNState struct {
	Online     mlpState    `json:"online"`
	Target     mlpState    `json:"target"`
	Replay     ReplayState `json:"replay"`
	EnvSteps   int         `json:"env_steps"`
	TrainSteps int         `json:"train_steps"`
	RNGDraws   uint64      `json:"rng_draws"` // Int63 draws since seeding
}

// State captures the learner for checkpointing.
func (d *DDQN) State() DDQNState {
	return DDQNState{
		Online:     captureMLP(d.online),
		Target:     captureMLP(d.target),
		Replay:     d.replay.State(),
		EnvSteps:   d.envSteps,
		TrainSteps: d.trainSteps,
		RNGDraws:   d.src.draws,
	}
}

// RestoreDDQN rebuilds a learner from a captured state. cfg must match the
// run that produced the state (the RNG is re-seeded from cfg.Seed and
// fast-forwarded to the recorded draw position).
func RestoreDDQN(actions int, cfg DDQNConfig, st DDQNState) (*DDQN, error) {
	online, err := restoreMLP(st.Online)
	if err != nil {
		return nil, fmt.Errorf("rl: restore online net: %w", err)
	}
	target, err := restoreMLP(st.Target)
	if err != nil {
		return nil, fmt.Errorf("rl: restore target net: %w", err)
	}
	replay, err := RestoreReplay(st.Replay)
	if err != nil {
		return nil, err
	}
	wantCap := cfg.ReplayCap
	if wantCap < 1 {
		wantCap = 1
	}
	if st.Replay.Cap != wantCap {
		return nil, fmt.Errorf("rl: replay capacity %d does not match config %d", st.Replay.Cap, wantCap)
	}
	src := &countedSource{src: rand.NewSource(cfg.Seed)}
	for src.draws < st.RNGDraws {
		src.Int63()
	}
	d := newDDQN(cfg, online, target, replay, src, actions)
	d.envSteps, d.trainSteps = st.EnvSteps, st.TrainSteps
	return d, nil
}
