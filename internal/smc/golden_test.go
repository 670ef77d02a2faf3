package smc

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// Golden digests of a seeded DefaultConfig ghost-cut-in training, serial
// and with two episode workers. TestTrainSerialMatchesPreChangeOracle's
// oracle drives the same rl package as the trainer, so a change to the
// learner's arithmetic would move both sides together; these digests pin
// the absolute result instead. Each is FNV-64a over the saved controller
// file's bytes followed by the Float64bits of every episode reward.
const (
	goldenTrainSerialDigest   = 0x6c6d54c569bd370d
	goldenTrainParallelDigest = 0xb07d1716f0f7603e
)

// goldenTrainEpisodes is enough for the default learner to pass its
// 200-transition warm-up and its first 250-step target sync.
const goldenTrainEpisodes = 4

func TestTrainGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped in -short")
	}
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// last bits of the integration and the learner's arithmetic.
		t.Skipf("golden digests are pinned on amd64, running on %s", runtime.GOARCH)
	}
	scns := scenario.GenerateValid(scenario.GhostCutIn, 4, 5)
	if len(scns) == 0 {
		t.Fatal("no valid ghost cut-in scenario")
	}
	for _, tc := range []struct {
		name    string
		workers int
		want    uint64
	}{
		{"serial", 1, goldenTrainSerialDigest},
		{"parallel", 2, goldenTrainParallelDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.EpisodeWorkers = tc.workers
			ctrl, res, err := Train(scns, lbcFactory, cfg, goldenTrainEpisodes)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "controller.json")
			if err := ctrl.Save(path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(raw)
			var b [8]byte
			for _, r := range res.EpisodeRewards {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("training digest = %#x, want %#x", got, tc.want)
			}
		})
	}
}
