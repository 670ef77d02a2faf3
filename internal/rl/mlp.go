// Package rl implements the reinforcement-learning machinery behind
// iPrism's Safety-hazard Mitigation Controller: a from-scratch multilayer
// perceptron with Adam, an experience-replay buffer, and the Double-DQN
// training algorithm of van Hasselt et al. [47].
//
// The paper's SMC uses a CNN over camera frames as the Q-network backbone;
// this reproduction substitutes a ground-truth feature vector (see package
// smc), so an MLP suffices as the function approximator. The D-DQN logic —
// ε-greedy exploration, target network, decoupled action selection and
// evaluation — is reproduced faithfully.
package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully connected network with ReLU hidden activations and a
// linear output layer, trained with Adam.
type MLP struct {
	sizes   []int
	weights [][]float64 // weights[l][j*in+i]: layer l, unit j, input i
	biases  [][]float64

	// Adam moments.
	mW, vW [][]float64
	mB, vB [][]float64
	adamT  int
}

// NewMLP constructs a network with the given layer sizes (input first,
// output last) and He-initialised weights drawn from the seeded source.
func NewMLP(sizes []int, seed int64) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("rl: need at least input and output layers, got %v", sizes)
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("rl: invalid layer size in %v", sizes)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := zeroMLP(sizes)
	for l, w := range m.weights {
		scale := math.Sqrt(2.0 / float64(sizes[l]))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
	}
	return m, nil
}

// zeroMLP allocates a network of the given layer sizes with every weight,
// bias and Adam moment zero.
func zeroMLP(sizes []int) *MLP {
	n := len(sizes) - 1
	m := &MLP{
		sizes:   append([]int(nil), sizes...),
		weights: make([][]float64, n),
		biases:  make([][]float64, n),
		mW:      make([][]float64, n),
		vW:      make([][]float64, n),
		mB:      make([][]float64, n),
		vB:      make([][]float64, n),
	}
	for l := 0; l < n; l++ {
		in, out := sizes[l], sizes[l+1]
		m.weights[l] = make([]float64, in*out)
		m.biases[l] = make([]float64, out)
		m.mW[l] = make([]float64, in*out)
		m.vW[l] = make([]float64, in*out)
		m.mB[l] = make([]float64, out)
		m.vB[l] = make([]float64, out)
	}
	return m
}

// MustNewMLP is NewMLP for known-good layer specifications.
func MustNewMLP(sizes []int, seed int64) *MLP {
	m, err := NewMLP(sizes, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// InputDim returns the input dimension.
func (m *MLP) InputDim() int { return m.sizes[0] }

// OutputDim returns the output dimension.
func (m *MLP) OutputDim() int { return m.sizes[len(m.sizes)-1] }

// Forward runs inference, returning a freshly allocated output vector. It
// is safe for concurrent callers: all scratch lives in one per-call buffer.
func (m *MLP) Forward(x []float64) []float64 {
	var buf [stackActs]float64
	return append([]float64(nil), m.forward(x, m.acts(buf[:]))...)
}

// stackActs bounds the activations an inference keeps in a stack buffer:
// the SMC's 24→64→64→3 network needs 131. A larger network's inferences
// allocate their buffer instead.
const stackActs = 256

// acts returns buf cut to actLen when it is long enough, else a fresh
// buffer. Passing a stack array's slice keeps an inference allocation-free
// and safe for concurrent callers of one network.
func (m *MLP) acts(buf []float64) []float64 {
	n := m.actLen()
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]float64, n)
}

// actLen is the length of every non-input layer's activations laid end to
// end, the buffer forward fills.
func (m *MLP) actLen() int {
	n := 0
	for _, s := range m.sizes[1:] {
		n += s
	}
	return n
}

// forward runs inference into acts (length actLen): layer l's activation
// occupies the sizes[l+1] entries after the previous layers'. It returns
// the output layer's slice of acts.
func (m *MLP) forward(x, acts []float64) []float64 {
	last := len(m.weights) - 1
	prev := x
	for l, w := range m.weights {
		out := acts[:m.sizes[l+1]]
		acts = acts[len(out):]
		layerForward(w, m.biases[l], prev, out, l < last)
		prev = out
	}
	return prev
}

// layerForward computes out[j] = b[j] + Σ_i w[j*len(prev)+i]·prev[i], with
// ReLU when relu is set. Four output units share each pass over prev, each
// with its own accumulator that adds the bias first and then the inputs in
// index order, so every unit sees exactly the additions, in exactly the
// order, of one scalar loop per unit: the result is bitwise the same.
func layerForward(w, b, prev, out []float64, relu bool) {
	in := len(prev)
	j := 0
	for ; j+4 <= len(out); j += 4 {
		r0 := w[j*in:][:in]
		r1 := w[(j+1)*in:][:in]
		r2 := w[(j+2)*in:][:in]
		r3 := w[(j+3)*in:][:in]
		s0, s1, s2, s3 := b[j], b[j+1], b[j+2], b[j+3]
		for i, v := range prev {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		if relu {
			s0, s1, s2, s3 = reluOf(s0), reluOf(s1), reluOf(s2), reluOf(s3)
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		r := w[j*in:][:in]
		s := b[j]
		for i, v := range prev {
			s += r[i] * v
		}
		if relu {
			s = reluOf(s)
		}
		out[j] = s
	}
}

// reluOf clamps negatives to +0 and passes everything else (−0 and NaN
// included) through unchanged. It selects on the bits so the compiler can
// use a conditional move: a hidden unit's sign is a coin flip, and a
// mispredicted branch per unit costs more than the unit's dot product.
func reluOf(s float64) float64 {
	b := math.Float64bits(s)
	if s < 0 {
		b = 0
	}
	return math.Float64frombits(b)
}

// trainBuf is the scratch of one TrainTargets call, reused across calls by
// the learner that owns it: the gradient accumulators, one sample's
// activations, the deltas of two adjacent layers and the indices of the
// nonzero deltas.
type trainBuf struct {
	gradW, gradB [][]float64
	acts         []float64
	delta, next  []float64
	nz           []int
}

func newTrainBuf(m *MLP) *trainBuf {
	widest := 0
	for _, s := range m.sizes {
		widest = max(widest, s)
	}
	tb := &trainBuf{
		gradW: make([][]float64, len(m.weights)),
		gradB: make([][]float64, len(m.biases)),
		acts:  make([]float64, m.actLen()),
		delta: make([]float64, widest),
		next:  make([]float64, widest),
		nz:    make([]int, widest),
	}
	for l := range m.weights {
		tb.gradW[l] = make([]float64, len(m.weights[l]))
		tb.gradB[l] = make([]float64, len(m.biases[l]))
	}
	return tb
}

// TrainTargets performs one Adam step of semi-gradient regression: for each
// sample, only the output unit actions[s] is regressed towards targets[s]
// (the DQN loss). It returns the mean squared error over the batch.
func (m *MLP) TrainTargets(inputs [][]float64, actions []int, targets []float64, lr float64) float64 {
	return m.trainTargets(newTrainBuf(m), inputs, actions, targets, lr)
}

// trainTargets is TrainTargets over the caller's scratch. Per sample it
// runs the forward pass, then walks the layers backwards: only units with a
// nonzero delta contribute (a zero delta is skipped, not added: with an
// infinite input 0·Inf would be NaN), each adds d to its bias gradient
// and d·prev[i] to its weight gradients, and the previous layer's delta
// starts at +0 and accumulates d·w[j][i] over those units in ascending j.
// Gradients accumulate in sample order. These are the additions, in the
// order, of the scalar per-unit loop, so the step is bitwise the same.
func (m *MLP) trainTargets(tb *trainBuf, inputs [][]float64, actions []int, targets []float64, lr float64) float64 {
	if len(inputs) == 0 {
		return 0
	}
	for l := range tb.gradW {
		clear(tb.gradW[l])
		clear(tb.gradB[l])
	}
	n := len(m.weights)
	loss := 0.0
	for s, x := range inputs {
		out := m.forward(x, tb.acts)
		a := actions[s]
		err := out[a] - targets[s]
		loss += err * err
		// Output-layer delta: only the selected unit has gradient.
		delta, spare := tb.delta[:len(out)], tb.next
		clear(delta)
		delta[a] = 2 * err / float64(len(inputs))
		hidden := tb.acts[:len(tb.acts)-len(out)]
		for l := n - 1; l >= 0; l-- {
			in := m.sizes[l]
			prev := x
			if l > 0 {
				prev = hidden[len(hidden)-in:]
				hidden = hidden[:len(hidden)-in]
			}
			// Collect the nonzero deltas without a branch: every index
			// is written, only a nonzero one (NaN included) advances k.
			nz, k := tb.nz[:len(delta)], 0
			for j, d := range delta {
				nz[k] = j
				if d != 0 {
					k++
				}
			}
			nz = nz[:k]
			gw, gb := tb.gradW[l], tb.gradB[l]
			for _, j := range nz {
				d := delta[j]
				gb[j] += d
				grow := gw[j*in:][:len(prev)]
				for i, v := range prev {
					grow[i] += d * v
				}
			}
			if l == 0 {
				break
			}
			next := spare[:in]
			backprop(m.weights[l], delta, nz, next)
			// ReLU derivative of the hidden activation, selected on the
			// bits like reluOf.
			for i, v := range prev {
				b := math.Float64bits(next[i])
				if v <= 0 {
					b = 0
				}
				next[i] = math.Float64frombits(b)
			}
			delta, spare = next, delta
		}
	}
	m.adamStep(tb.gradW, tb.gradB, lr)
	return loss / float64(len(inputs))
}

// backprop sets next[i] = Σ_{j∈nz} delta[j]·w[j*len(next)+i], summed from
// +0 in the order of nz. Four units share each pass over next, their
// products added to one register in that order.
func backprop(w, delta []float64, nz []int, next []float64) {
	in := len(next)
	clear(next)
	k := 0
	for ; k+4 <= len(nz); k += 4 {
		j0, j1, j2, j3 := nz[k], nz[k+1], nz[k+2], nz[k+3]
		d0, d1, d2, d3 := delta[j0], delta[j1], delta[j2], delta[j3]
		r0 := w[j0*in:][:in]
		r1 := w[j1*in:][:in]
		r2 := w[j2*in:][:in]
		r3 := w[j3*in:][:in]
		for i, s := range next {
			s += d0 * r0[i]
			s += d1 * r1[i]
			s += d2 * r2[i]
			s += d3 * r3[i]
			next[i] = s
		}
	}
	for ; k < len(nz); k++ {
		j := nz[k]
		d := delta[j]
		r := w[j*in:][:in]
		for i := range next {
			next[i] += d * r[i]
		}
	}
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

func (m *MLP) adamStep(gradW, gradB [][]float64, lr float64) {
	m.adamT++
	c1 := 1 - math.Pow(adamBeta1, float64(m.adamT))
	c2 := 1 - math.Pow(adamBeta2, float64(m.adamT))
	for l := range m.weights {
		for i, g := range gradW[l] {
			m.mW[l][i] = adamBeta1*m.mW[l][i] + (1-adamBeta1)*g
			m.vW[l][i] = adamBeta2*m.vW[l][i] + (1-adamBeta2)*g*g
			m.weights[l][i] -= lr * (m.mW[l][i] / c1) / (math.Sqrt(m.vW[l][i]/c2) + adamEps)
		}
		for i, g := range gradB[l] {
			m.mB[l][i] = adamBeta1*m.mB[l][i] + (1-adamBeta1)*g
			m.vB[l][i] = adamBeta2*m.vB[l][i] + (1-adamBeta2)*g*g
			m.biases[l][i] -= lr * (m.mB[l][i] / c1) / (math.Sqrt(m.vB[l][i]/c2) + adamEps)
		}
	}
}

// Clone returns a deep copy of the network (weights only; fresh optimiser
// state), used for the D-DQN target network.
func (m *MLP) Clone() *MLP {
	c := zeroMLP(m.sizes)
	c.CopyWeightsFrom(m)
	return c
}

// CopyWeightsFrom overwrites this network's weights with src's (the target-
// network sync step). Layer shapes must match.
func (m *MLP) CopyWeightsFrom(src *MLP) {
	for l := range m.weights {
		copy(m.weights[l], src.weights[l])
		copy(m.biases[l], src.biases[l])
	}
}
