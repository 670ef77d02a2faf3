package smc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/scenario"
)

// BenchmarkTrainGhostCutIn measures a 16-episode DefaultConfig training
// over 16 seeded ghost-cut-in scenarios, serial and with two episode
// workers, and reports episodes per wall-clock second. Past the learner's
// 200-transition warm-up every decision also takes a D-DQN step on the
// coordinator, so the figure covers simulation, STI and learning.
func BenchmarkTrainGhostCutIn(b *testing.B) {
	const episodes = 16
	scns := scenario.GenerateValid(scenario.GhostCutIn, 16, 1)
	if len(scns) == 0 {
		b.Fatal("no valid ghost cut-in scenario")
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.EpisodeWorkers = workers
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, _, err := Train(scns, lbcFactory, cfg, episodes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(episodes*b.N)/time.Since(start).Seconds(), "episodes/s")
		})
	}
}
