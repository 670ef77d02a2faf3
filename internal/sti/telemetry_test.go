package sti

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// counterDeltas snapshots the cache counters so tests can assert deltas
// regardless of what earlier tests in the package accumulated.
type cacheCounts struct{ hits, misses, bypass int64 }

func readCacheCounts() cacheCounts {
	return cacheCounts{
		hits:   telCacheHits.Value(),
		misses: telCacheMisses.Value(),
		bypass: telCacheBypass.Value(),
	}
}

func (c cacheCounts) sub(o cacheCounts) cacheCounts {
	return cacheCounts{hits: c.hits - o.hits, misses: c.misses - o.misses, bypass: c.bypass - o.bypass}
}

// TestCacheCountersMatchBehaviour verifies that the telemetry hit/miss
// counters agree with the emptyCache's actual behaviour: every miss
// inserts exactly one bucket, every further lookup of a quantised-equal
// state is a hit, and non-cacheable states are counted as bypasses.
func TestCacheCountersMatchBehaviour(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)

	e := MustNewEvaluator(reach.DefaultConfig())
	m := testRoad()
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
	}
	trajs := groundTruth(e, actors)

	before := readCacheCounts()
	lookups := 0

	// Three quantisation-distinct ego speeds, each evaluated three times:
	// first call per speed is a miss, the other two are hits. The ego sits
	// at x=100 so the direction-aware segment-end guard (see
	// Evaluator.xClearance) is satisfied in both directions at every speed.
	const perSpeed = 3
	speeds := []float64{8, 10, 12} // 0.5 m/s buckets: all distinct keys
	for _, v := range speeds {
		for i := 0; i < perSpeed; i++ {
			e.Combined(Query{m, ego(100, 1.75, v), actors, trajs})
			lookups++
		}
	}

	d := readCacheCounts().sub(before)
	if got, want := d.misses, int64(len(speeds)); got != want {
		t.Errorf("misses = %d, want %d (one per distinct quantised state)", got, want)
	}
	if got, want := d.hits, int64(lookups-len(speeds)); got != want {
		t.Errorf("hits = %d, want %d", got, want)
	}
	if d.bypass != 0 {
		t.Errorf("bypass = %d, want 0 (all states cacheable)", d.bypass)
	}
	// The counters must agree with the cache's own bucket count.
	if got, want := int64(e.cache.Len()), d.misses; got != want {
		t.Errorf("cache.Len() = %d, want %d (one bucket per miss)", got, want)
	}
	if d.hits+d.misses != int64(lookups) {
		t.Errorf("hits+misses = %d, want %d lookups", d.hits+d.misses, lookups)
	}

	// A state near the segment end is not cacheable: it must bypass the
	// cache without touching hit/miss or inserting a bucket.
	buckets := e.cache.Len()
	mid := readCacheCounts()
	e.Combined(Query{m, ego(499, 1.75, 10), actors, trajs})
	d = readCacheCounts().sub(mid)
	if d.bypass != 1 || d.hits != 0 || d.misses != 0 {
		t.Errorf("near-end state: deltas = %+v, want exactly one bypass", d)
	}
	if e.cache.Len() != buckets {
		t.Errorf("bypass inserted a bucket: %d -> %d", buckets, e.cache.Len())
	}
}

// TestCacheCountersRingRoad covers the ring-road cache family: the same
// relative pose re-evaluated at a different absolute angle must hit.
func TestCacheCountersRingRoad(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)

	e := MustNewEvaluator(reach.DefaultConfig())
	ring, err := roadmap.NewRingRoad(geom.V(0, 0), 26.5, 33.5)
	if err != nil {
		t.Fatal(err)
	}
	aPos, aHeading := ring.PoseAt(30, 0.3)
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: aPos, Heading: aHeading, Speed: 5}),
	}
	trajs := groundTruth(e, actors)

	before := readCacheCounts()
	// Two rotationally equivalent ego poses (same radius, tangent heading
	// and speed at different ring angles) must share one cache bucket.
	pos1, h1 := ring.PoseAt(30, 0)
	pos2, h2 := ring.PoseAt(30, 2.0)
	e.Combined(Query{ring, vehicle.State{Pos: pos1, Heading: h1, Speed: 6}, actors, trajs})
	e.Combined(Query{ring, vehicle.State{Pos: pos2, Heading: h2, Speed: 6}, actors, trajs})

	d := readCacheCounts().sub(before)
	if d.misses != 1 || d.hits != 1 {
		t.Errorf("ring road deltas = %+v, want 1 miss then 1 hit", d)
	}
}
