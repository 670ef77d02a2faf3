package reach

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// The single-world reference: Algorithm 1 as a plain breadth expansion of
// one world, with its own visited set, its own occupancy grid and
// collisions judged by a closure. It shares none of expand's world-mask
// bookkeeping, broad phase or sweep, which makes it the oracle expand is
// held to: TestSingleWorldMatchesReference checks single-world expand
// against it, and the differential suites check every counterfactual
// world /i against it with CollideWithout.

// CollisionFunc reports whether the footprint b collides with any obstacle
// during time slice index slice (slice 0 is the current instant). The
// footprint arrives prepared so implementations can run cached broad-phase
// rejections; b is only valid for the duration of the call.
type CollisionFunc func(b *geom.PreparedBox, slice int) bool

// Collide returns a CollisionFunc that tests against every actor.
func (o *Obstacles) Collide() CollisionFunc {
	return func(b *geom.PreparedBox, slice int) bool {
		slice = min(slice, o.numSlices)
		for i := range o.boxes {
			if b.Intersects(&o.boxes[i][slice]) {
				return true
			}
		}
		return false
	}
}

// CollideRecording returns a CollisionFunc over every actor that
// additionally marks exclusive blockers: whenever a queried footprint
// intersects exactly one actor, that actor's entry in marks is set. An
// actor left unmarked after a full tube computation never changed a single
// collision verdict on its own, so removing it cannot alter the
// (deterministic) expansion: its counterfactual tube T^{/i} equals the base
// tube T exactly.
//
// The test stops early once two distinct actors intersect (the verdict is
// true and exclusivity is impossible), so the overhead compared to Collide
// is confined to footprints already in contact.
func (o *Obstacles) CollideRecording(marks []bool) CollisionFunc {
	return func(b *geom.PreparedBox, slice int) bool {
		if slice > o.numSlices {
			slice = o.numSlices
		}
		hit := -1
		for i := range o.boxes {
			if b.Intersects(&o.boxes[i][slice]) {
				if hit >= 0 {
					return true // second blocker: no exclusive mark
				}
				hit = i
			}
		}
		if hit >= 0 {
			marks[hit] = true
			return true
		}
		return false
	}
}

// CollideWithout returns a CollisionFunc for the counterfactual world with
// actor index skip removed (the paper's X^{/i}): the per-world oracle the
// differential suites expand on its own and compare the masked expansion
// against.
func (o *Obstacles) CollideWithout(skip int) CollisionFunc {
	return func(b *geom.PreparedBox, slice int) bool {
		slice = min(slice, o.numSlices)
		for i := range o.boxes {
			if i != skip && b.Intersects(&o.boxes[i][slice]) {
				return true
			}
		}
		return false
	}
}

// without returns the obstacles of every actor but skip: world /skip as an
// obstacle set of its own, for tests that expand it with Compute.
func (o *Obstacles) without(skip int) *Obstacles {
	boxes := append(append([][]geom.PreparedBox{}, o.boxes[:skip]...), o.boxes[skip+1:]...)
	return &Obstacles{boxes: boxes, numSlices: o.numSlices}
}

// keySet is an open-addressed hash set of stateKeys: insertion is a single
// linear-probe pass, clearing is a generation bump instead of an
// O(capacity) wipe, and membership is decided by full key equality, the
// hash only picks the probe start.
type keySet struct {
	keys []stateKey
	gen  []uint32
	cur  uint32
	n    int
}

func newKeySet() *keySet { return &keySet{cur: 1} }

// contains reports membership without modifying the set.
func (ks *keySet) contains(k stateKey) bool {
	if len(ks.keys) == 0 {
		return false
	}
	mask := uint64(len(ks.keys) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		if ks.gen[i] != ks.cur {
			return false
		}
		if ks.keys[i] == k {
			return true
		}
	}
}

// reset empties the set in O(1) by advancing the generation stamp.
func (ks *keySet) reset() {
	ks.cur++
	ks.n = 0
	if ks.cur == 0 { // stamp wrapped: old entries would look live again
		clear(ks.gen)
		ks.cur = 1
	}
}

// insert adds k and reports whether it was absent. The table grows before
// load factor reaches 1/2.
func (ks *keySet) insert(k stateKey) bool {
	if 2*(ks.n+1) > len(ks.keys) {
		ks.grow()
	}
	mask := uint64(len(ks.keys) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		if ks.gen[i] != ks.cur {
			ks.keys[i] = k
			ks.gen[i] = ks.cur
			ks.n++
			return true
		}
		if ks.keys[i] == k {
			return false
		}
	}
}

func (ks *keySet) grow() {
	capOld := len(ks.keys)
	capNew := 1024
	if capOld > 0 {
		capNew = capOld * 2
	}
	oldKeys, oldGen := ks.keys, ks.gen
	ks.keys = make([]stateKey, capNew)
	ks.gen = make([]uint32, capNew)
	mask := uint64(capNew - 1)
	for i, g := range oldGen {
		if g != ks.cur {
			continue
		}
		k := oldKeys[i]
		for j := hashKey(k) & mask; ; j = (j + 1) & mask {
			if ks.gen[j] != ks.cur {
				ks.keys[j] = k
				ks.gen[j] = ks.cur
				break
			}
		}
	}
}

// referenceWork is the work a reference expansion did: candidates
// propagated and candidates pruned by the drivability and collision sweep.
type referenceWork struct {
	propagations, pruned int64
}

// referenceTube runs Algorithm 1 for one world, with collisions judged by
// collide (nil for the empty world).
func referenceTube(m roadmap.Map, collide CollisionFunc, ego vehicle.State, cfg Config) (Tube, referenceWork) {
	var work referenceWork
	numSlices := cfg.NumSlices()
	grid := geom.NewOccupancyGrid(cfg.CellSize)
	tube := Tube{SliceStates: make([]int, numSlices)}
	pm, _ := m.(roadmap.PreparedMap)

	egoPb := cfg.Params.Footprint(ego).Prepare()
	if !drivable(m, pm, &egoPb) || (collide != nil && collide(&egoPb, 0)) {
		// The ego is already off-road or in contact: no escape routes.
		return tube, work
	}

	// One prepared footprint reused across every sub-step of the tube —
	// seeded from the start footprint so the half-extents and bounding
	// radius (constant for the whole tube) are prepared exactly once — and
	// the control fan, whose buffers hold the sub-step paths of the
	// frontier state under consideration.
	pb := egoPb
	fan := NewScratch().fan(&cfg)
	frontier := []vehicle.State{ego}
	visited := newKeySet()
	var next []vehicle.State

	for slice := 0; slice < numSlices; slice++ {
		visited.reset()
		next = next[:0]
	expand:
		for _, s := range frontier {
			// Integrate every control's sub-step path first — pure
			// kinematics, no footprint work — and discard duplicate
			// endpoints before paying for the drivability and collision
			// sweep. In saturated slices most propagations land on an
			// already-visited dedup cell, and a duplicate is discarded
			// identically whether or not its path would have been pruned
			// (the checks have no effect on surviving states), so this
			// reordering leaves the tube bit-for-bit unchanged.
			nsub := cfg.integrateFan(fan, s, fan.paths)
			for ui := range fan.controls {
				s2 := fan.ends[ui]
				path := fan.paths[ui*nsub : ui*nsub+nsub]
				work.propagations++
				k := cfg.key(s2)
				if visited.contains(k) {
					continue
				}
				if !cfg.pathOK(m, pm, collide, path, slice, &pb) {
					work.pruned++
					continue
				}
				visited.insert(k)
				grid.Mark(s2.Pos)
				if cfg.RecordPoints {
					tube.Points = append(tube.Points, s2.Pos)
				}
				next = append(next, s2)
				if len(next) >= cfg.MaxStates {
					break expand
				}
			}
		}
		tube.SliceStates[slice] = len(next)
		tube.States += len(next)
		if len(next) == 0 {
			break
		}
		frontier, next = next, frontier[:0]
	}
	tube.Volume = grid.Area()
	return tube, work
}

// pathOK sweeps the footprint along an integrated sub-step path, rejecting
// the transition if any intermediate footprint leaves the map or collides.
// Intermediate collisions are tested against both bounding slice indices of
// the (moving) obstacles, a conservative sweep approximation.
func (c Config) pathOK(m roadmap.Map, pm roadmap.PreparedMap, collide CollisionFunc, path []pathState, slice int, pb *geom.PreparedBox) bool {
	for i := range path {
		ps := &path[i]
		pb.MoveTo(ps.st.Pos, ps.st.Heading, ps.sin, ps.cos)
		if !drivable(m, pm, pb) {
			return false
		}
		if collide != nil && (collide(pb, slice) || collide(pb, slice+1)) {
			return false
		}
	}
	return true
}

// requireSingleWorldMatchesReference holds Compute (single-world
// expand) to the reference on one scene, bit for bit: volume, state
// counts, per-slice frontier sizes and recorded points, and the
// reach.propagations and reach.pruned work counters. Blocked must equal
// whether the reference's collision test ever answered true, and on a
// one-actor scene whether CollideRecording marked the actor. It returns
// the tube's Blocked.
func requireSingleWorldMatchesReference(t *testing.T, tag string, m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch) bool {
	t.Helper()
	cfg.RecordPoints = true
	marks := make([]bool, obs.NumActors())
	recording := obs.CollideRecording(marks)
	hit := false
	want, work := referenceTube(m, func(b *geom.PreparedBox, slice int) bool {
		h := recording(b, slice)
		hit = hit || h
		return h
	}, ego, cfg)
	want.Blocked = hit
	if !telemetry.Enabled() {
		telemetry.Enable()
		defer telemetry.Disable()
	}
	props, pruned := telPropagations.Value(), telPruned.Value()
	got := Compute(m, obs, ego, cfg, scr)
	if p := telPropagations.Value() - props; p != work.propagations {
		t.Errorf("%s: %d propagations, reference %d", tag, p, work.propagations)
	}
	if p := telPruned.Value() - pruned; p != work.pruned {
		t.Errorf("%s: %d pruned, reference %d", tag, p, work.pruned)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: single-world expand diverges from the reference\n got volume %v states %d slices %v points %d blocked %v\nwant volume %v states %d slices %v points %d blocked %v",
			tag, got.Volume, got.States, got.SliceStates, len(got.Points), got.Blocked,
			want.Volume, want.States, want.SliceStates, len(want.Points), want.Blocked)
	}
	if len(marks) == 1 && got.Blocked != marks[0] {
		t.Errorf("%s: Blocked %v, CollideRecording mark %v", tag, got.Blocked, marks[0])
	}
	return got.Blocked
}

// Single-world expand is the only production loop for |T^∅|, one-actor
// base tubes and sti.Evaluator.Combined, so it must reproduce the reference
// exactly on the benchmark's input classes: every fixture scene, its
// empty world and each of its first actors alone, the dense twelve-actor
// scene, and the 64- and 128-actor crowds, whose actor bits lie far past
// the base world's one-word mask. Capped and coarse-ε configurations
// stress the cap cut-off and claim order.
func TestSingleWorldMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	scr := NewScratch()
	type input struct {
		tag string
		m   roadmap.Map
		ego vehicle.State
		obs *Obstacles
	}
	build := func(tag string, m roadmap.Map, ego vehicle.State, actors []*actor.Actor) input {
		trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
		return input{tag, m, ego, BuildObstacles(actors, trajs, cfg)}
	}
	var inputs []input
	for _, ty := range append(append([]scenario.Typology{}, scenario.Typologies...), scenario.RoundaboutCutIn) {
		for seed := int64(1); seed <= 3; seed++ {
			fx, err := scenario.Fixtures(ty, 10, seed)
			if err != nil {
				t.Fatalf("fixtures %v seed %d: %v", ty, seed, err)
			}
			for si, sc := range fx {
				m, ego, actors, _, _, err := sc.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("%v seed %d scene %d", ty, seed, si)
				inputs = append(inputs, build(tag, m, ego, actors), build(tag+" empty", m, ego, nil))
				for i := range actors {
					inputs = append(inputs, build(fmt.Sprintf("%s actor %d alone", tag, i), m, ego, actors[i:i+1]))
				}
			}
		}
	}
	{
		m, tr := dense12Tick()
		inputs = append(inputs, build("dense12", m, tr[0].Ego, tr[0].Actors))
	}
	for _, n := range []int{64, 128} {
		m, ego, actors := scenario.UrbanCrush(n)
		inputs = append(inputs, build(fmt.Sprintf("crush%d", n), m, ego, actors))
	}

	blockedAlone, alone := 0, 0
	for _, in := range inputs {
		blocked := requireSingleWorldMatchesReference(t, in.tag, in.m, in.obs, in.ego, cfg, scr)
		if in.obs.NumActors() == 1 {
			alone++
			if blocked {
				blockedAlone++
			}
		}
	}
	// Both answers of Blocked must be exercised on one-actor scenes.
	t.Logf("%d of %d one-actor scenes blocked", blockedAlone, alone)
	if blockedAlone == 0 || blockedAlone == alone {
		t.Fatalf("%d of %d one-actor scenes blocked; want a mix", blockedAlone, alone)
	}

	rng := rand.New(rand.NewSource(23))
	road := testRoad()
	coarse := DefaultConfig()
	coarse.PosEps, coarse.HeadingEps, coarse.SpeedEps = 3.0, 0.5, 4.0
	stressed := []Config{coarse}
	for _, maxStates := range []int{1, 2, 3, 8, 40} {
		c := DefaultConfig()
		c.MaxStates = maxStates
		stressed = append(stressed, c)
	}
	for ci, c := range stressed {
		for iter := 0; iter < 8; iter++ {
			ego, actors := randomScene(rng, rng.Intn(8))
			trajs := actor.PredictAll(actors, c.NumSlices(), c.SliceDt)
			requireSingleWorldMatchesReference(t, fmt.Sprintf("config %d iter %d", ci, iter),
				road, BuildObstacles(actors, trajs, c), ego, c, scr)
		}
		for _, in := range inputs[len(inputs)-3:] { // dense12 and the crowds
			requireSingleWorldMatchesReference(t, fmt.Sprintf("config %d %s", ci, in.tag), in.m, in.obs, in.ego, c, scr)
		}
	}
}

// FuzzSingleWorldVsReference drives random scenes of up to 130 actors,
// under a fuzzed MaxStates cap, through single-world expand and the
// reference and requires the same tube bit for bit.
func FuzzSingleWorldVsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(4096))  // empty world
	f.Add(int64(2), uint8(1), uint16(4096))  // one actor
	f.Add(int64(3), uint8(6), uint16(3))     // capped small scene
	f.Add(int64(4), uint8(64), uint16(4096)) // actor bits past word 0
	f.Add(int64(5), uint8(130), uint16(40))  // capped crowd
	road := testRoad()
	scr := NewScratch()
	f.Fuzz(func(t *testing.T, seed int64, n uint8, maxStates uint16) {
		cfg := DefaultConfig()
		cfg.MaxStates = 1 + int(maxStates)%4096
		ego, actors := randomScene(rand.New(rand.NewSource(seed)), int(n)%131)
		trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
		requireSingleWorldMatchesReference(t, fmt.Sprintf("seed %d n %d cap %d", seed, n, cfg.MaxStates),
			road, BuildObstacles(actors, trajs, cfg), ego, cfg, scr)
	})
}
