package reach

import (
	"repro/internal/actor"
	"repro/internal/geom"
)

// Obstacles holds the predicted footprints of every actor at every time
// slice of a reach-tube computation, organised per actor so that the
// counterfactual queries of STI (remove one actor, remove all) are cheap.
type Obstacles struct {
	// boxes[i][s] is actor i's footprint during slice s, prepared once so
	// the inner SAT tests of every tube computation reuse the cached axes,
	// bounding radius and AABB.
	boxes     [][]geom.PreparedBox
	numSlices int
}

// BuildObstacles resamples each actor's trajectory at the reach-tube slice
// interval and precomputes footprints. trajs[i] must correspond to
// actors[i]; trajectories sampled at a different interval are resampled by
// nearest-time lookup.
func BuildObstacles(actors []*actor.Actor, trajs []actor.Trajectory, cfg Config) *Obstacles {
	n := cfg.NumSlices()
	o := &Obstacles{
		boxes:     make([][]geom.PreparedBox, len(actors)),
		numSlices: n,
	}
	for i, a := range actors {
		tr := trajs[i]
		if tr.Dt != cfg.SliceDt {
			tr = tr.Resample(cfg.SliceDt, n)
		}
		bs := make([]geom.PreparedBox, n+1)
		for s := 0; s <= n; s++ {
			bs[s] = a.FootprintAt(tr.StateAt(s)).Prepare()
		}
		o.boxes[i] = bs
	}
	return o
}

// NumActors returns the number of actors in the set.
func (o *Obstacles) NumActors() int { return len(o.boxes) }

// Collide returns a CollisionFunc that tests against every actor.
func (o *Obstacles) Collide() CollisionFunc { return o.collideSkipping(-1) }

// CollideWithout returns a CollisionFunc for the counterfactual world with
// actor index i removed (the paper's X^{/i}).
func (o *Obstacles) CollideWithout(i int) CollisionFunc { return o.collideSkipping(i) }

func (o *Obstacles) collideSkipping(skip int) CollisionFunc {
	return func(b *geom.PreparedBox, slice int) bool {
		if slice > o.numSlices {
			slice = o.numSlices
		}
		for i, bs := range o.boxes {
			if i == skip {
				continue
			}
			if b.Intersects(&bs[slice]) {
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
// tube T exactly. sti.Evaluator uses this to elide counterfactual
// computations for non-blocking actors.
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

// strikeOnly applies a blocker's world strike to a possible-world mask:
// keep only world bit `bit` (if it was still possible), zero everything
// else — a hit by actor i removes every world actor i is present in,
// leaving at most world /i (bit 1+i). It reports whether any world
// survives.
func strikeOnly(possible []uint64, bit int) bool {
	keep := possible[bit>>6] & (uint64(1) << uint(bit&63))
	clear(possible)
	possible[bit>>6] = keep
	return keep != 0
}

// hasBit reports whether world bit `bit` is set in mask.
func hasBit(mask []uint64, bit int) bool {
	return mask[bit>>6]&(uint64(1)<<uint(bit&63)) != 0
}

// maskHits scans the actors whose slice-s footprint collides with b and
// strikes each blocker's victims from the possible-world mask, mutated in
// place. The scan stops once no world survives — by then every world has
// either pruned the footprint or never examined it. It reports whether any
// world survives.
func (o *Obstacles) maskHits(b *geom.PreparedBox, slice int, possible []uint64) bool {
	slice = min(slice, o.numSlices)
	for i := range o.boxes {
		if b.Intersects(&o.boxes[i][slice]) && !strikeOnly(possible, 1+i) {
			return false
		}
	}
	return true
}

// activeInto appends to act the actors whose footprint during slice s or
// s+1 could intersect an ego footprint inside the window [min, max], judged
// by AABB overlap. The shared expansion derives the window from the
// frontier's swept envelope each slice, so the per-candidate collision scan
// (firstHit) only visits actors near the tube instead of all of them.
// The filter is conservative: a rejected actor's AABB is disjoint from every
// footprint the slice can produce, so it cannot change any verdict.
func (o *Obstacles) activeInto(act []int32, min, max geom.Vec2, slice int) []int32 {
	s0, s1 := o.slicePair(slice)
	for i := range o.boxes {
		a := &o.boxes[i][s0]
		if a.Min.X <= max.X && min.X <= a.Max.X && a.Min.Y <= max.Y && min.Y <= a.Max.Y {
			act = append(act, int32(i))
			continue
		}
		a = &o.boxes[i][s1]
		if a.Min.X <= max.X && min.X <= a.Max.X && a.Min.Y <= max.Y && min.Y <= a.Max.Y {
			act = append(act, int32(i))
		}
	}
	return act
}

// slicePair returns the two obstacle slices a path sweep from entry slice
// `slice` tests — the slice's bounding indices, clamped to the horizon.
func (o *Obstacles) slicePair(slice int) (s0, s1 int) {
	return min(slice, o.numSlices), min(slice+1, o.numSlices)
}

// firstHit returns the position in act of the first actor whose slice-s0
// or slice-s1 footprint intersects b (the pair pathOK tests), or -1. Each
// test runs an inlined AABB rejection before the SAT call. Whether an actor
// hits at s0, at s1 or both, the world-mask effect is the same single
// strike, so one verdict per actor suffices.
func (o *Obstacles) firstHit(b *geom.PreparedBox, s0, s1 int, act []int32) int {
	for p, i := range act {
		bs := o.boxes[i]
		a := &bs[s0]
		if b.Min.X <= a.Max.X && a.Min.X <= b.Max.X &&
			b.Min.Y <= a.Max.Y && a.Min.Y <= b.Max.Y && b.Intersects(a) {
			return p
		}
		a = &bs[s1]
		if b.Min.X <= a.Max.X && a.Min.X <= b.Max.X &&
			b.Min.Y <= a.Max.Y && a.Min.Y <= b.Max.Y && b.Intersects(a) {
			return p
		}
	}
	return -1
}

// BoxAt returns actor i's footprint at slice s (clamped to the horizon).
func (o *Obstacles) BoxAt(i, s int) geom.Box {
	if s > o.numSlices {
		s = o.numSlices
	}
	return o.boxes[i][s].Box
}
