package rl

import "testing"

// BenchmarkDDQNTrainStep measures one Observe (replay push + batch
// gradient step) at the SMC's network size. The replay ring is pre-filled
// with distinct seeded transitions and stays at a fixed size, so the cost
// per op does not depend on b.N.
func BenchmarkDDQNTrainStep(b *testing.B) {
	const dim, actions, ring = 24, 3, 2048
	cfg := DefaultDDQNConfig()
	cfg.WarmUp = ring
	cfg.ReplayCap = ring
	d, err := NewDDQN(dim, actions, cfg)
	if err != nil {
		b.Fatal(err)
	}
	stream := synthTransitions(1, 2*ring, dim)
	for _, tr := range stream[:ring] {
		d.Observe(tr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(stream[ring+i%ring])
	}
}

// BenchmarkMLPForward measures one Q-network inference.
func BenchmarkMLPForward(b *testing.B) {
	m := MustNewMLP([]int{24, 64, 64, 3}, 1)
	x := make([]float64, 24)
	for i := range x {
		x[i] = float64(i) / 24
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}
