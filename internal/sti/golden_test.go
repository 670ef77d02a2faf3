package sti

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/actor"
	"repro/internal/reach"
)

// Golden digests of Evaluate on the benchmark input classes: the fixture
// snapshots (every typology, seeds 1-3) and, outside -short, the 64- and
// 128-actor UrbanCrush crowds. The differential suites compare the engine
// against an oracle that shares its bicycle-model integration, so a change
// to that arithmetic would move both sides together; these digests pin the
// absolute output instead. They are FNV-64a over the Float64bits of every
// Result field, in scene order.
const (
	goldenFixturesDigest = 0xfea692855b0ded61
	goldenCrowdsDigest   = 0x9af6ba46716a8f25
)

func TestEvaluateGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// last bits of the integration and so of the volumes.
		t.Skipf("golden digests are pinned on amd64, running on %s", runtime.GOARCH)
	}
	ev, err := NewEvaluator(reach.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ev.Config()
	obs := benchmarkScenes(t)
	nFixtures := len(obs)
	if !testing.Short() {
		nFixtures -= 2 // benchmarkScenes appends the two crowds last
	}
	digest := func(from, to int) uint64 {
		h := fnv.New64a()
		for _, o := range obs[from:to] {
			trajs := actor.PredictAll(o.Actors, cfg.NumSlices(), cfg.SliceDt)
			hashResult(h, score(ev, Query{o.Map, o.Ego, o.Actors, trajs}))
		}
		return h.Sum64()
	}
	if got := digest(0, nFixtures); got != goldenFixturesDigest {
		t.Errorf("fixture digest = %#x, want %#x", got, uint64(goldenFixturesDigest))
	}
	if testing.Short() {
		return
	}
	if got := digest(nFixtures, len(obs)); got != goldenCrowdsDigest {
		t.Errorf("crowd digest = %#x, want %#x", got, uint64(goldenCrowdsDigest))
	}
}

// hashResult feeds every field of r into h: the scalars, then each
// per-actor slice with its length.
func hashResult(h hash.Hash64, r Result) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(r.Combined))
	put(math.Float64bits(r.BaseVolume))
	put(math.Float64bits(r.EmptyVolume))
	for _, s := range [][]float64{r.PerActor, r.WithoutVolume} {
		put(uint64(len(s)))
		for _, v := range s {
			put(math.Float64bits(v))
		}
	}
}
