package reach

import (
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Telemetry for the shared-expansion engine (flushed once per call, like
// ComputeScratch's counters).
var (
	telSharedComputes = telemetry.NewCounter("reach.shared.computes")
	telSharedStates   = telemetry.NewCounter("reach.shared.states_expanded")
	telSharedWorlds   = telemetry.NewHistogram("reach.shared.worlds", telemetry.LinearBuckets(0, 8, 18))
)

// SharedTubes is the result of ComputeCounterfactuals: every reach-tube
// volume the STI per-actor evaluation needs (Eq. 4), derived from a single
// expansion instead of one expansion per counterfactual world.
type SharedTubes struct {
	// BaseVolume is |T|, the tube volume with every actor present —
	// bit-for-bit the volume ComputeScratch returns with Obstacles.Collide.
	BaseVolume float64
	// WithoutVolume[i] is |T^{/i}| for each actor i — bit-for-bit the
	// volume ComputeScratch returns with CollideWithout(i).
	WithoutVolume []float64
	// Represented is the number of actors carried as explicit counterfactual
	// worlds. Since masks became segmented this is always NumActors: every
	// actor in the scene gets a world bit.
	Represented int
	// MaskWords is the number of 64-bit words in each state's world mask:
	// ceil((1+NumActors)/64).
	MaskWords int
	// States is the number of masked states expanded (diagnostics).
	States int
}

// maskedKeySet maps dedup keys to the mask of worlds that have claimed the
// key in the current slice. It is the per-world visited set of Algorithm 1,
// collapsed: world w treats key k as visited iff bit w of its claimed mask
// is set. Each slot carries `words` consecutive uint64s (bit w lives in
// word w/64), so one lookup covers every world of an arbitrarily wide
// scene. Same open-addressing discipline as keySet (exact key equality,
// generation-stamped O(1) reset).
type maskedKeySet struct {
	words int
	keys  []stateKey
	masks []uint64 // stride `words` per slot
	gen   []uint32
	cur   uint32
	n     int
}

func newMaskedKeySet(words int) *maskedKeySet { return &maskedKeySet{words: words, cur: 1} }

// reset readies the set for a new slice with `words`-wide masks. Changing
// the width drops the table (the stride no longer matches), which only
// happens when consecutive scenes differ in actor-count word boundaries.
func (ks *maskedKeySet) reset(words int) {
	if ks.words != words {
		ks.words = words
		ks.keys, ks.masks, ks.gen = nil, nil, nil
		ks.n = 0
		ks.cur = 1
		return
	}
	ks.cur++
	ks.n = 0
	if ks.cur == 0 { // stamp wrapped: old entries would look live again
		clear(ks.gen)
		ks.cur = 1
	}
}

// probe returns the worlds already claimed for k (nil when none are) plus
// the slot the probe ended at (k's slot if present, else the first empty
// slot of its chain), so the candidate's later claim needn't re-walk the
// chain. The slot stays valid until the next insertion; -1 means the table
// is unallocated.
func (ks *maskedKeySet) probe(k stateKey) ([]uint64, int) {
	if len(ks.keys) == 0 {
		return nil, -1
	}
	mask := uint64(len(ks.keys) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		if ks.gen[i] != ks.cur {
			return nil, int(i)
		}
		if ks.keys[i] == k {
			return ks.masks[int(i)*ks.words : int(i)*ks.words+ks.words], int(i)
		}
	}
}

// orAt claims the worlds in bits for k at the slot probe returned. A
// stale or unknown slot (table grown or unallocated since) falls back to a
// fresh probe; claiming into an empty slot defers to or when the insertion
// would breach the load factor.
func (ks *maskedKeySet) orAt(slot int, k stateKey, bits []uint64) {
	if slot >= 0 && slot < len(ks.keys) {
		if ks.gen[slot] == ks.cur {
			if ks.keys[slot] == k {
				orInto(ks.masks[slot*ks.words:slot*ks.words+ks.words], bits)
				return
			}
		} else if 2*(ks.n+1) <= len(ks.keys) {
			ks.keys[slot] = k
			ks.gen[slot] = ks.cur
			ks.n++
			setInto(ks.masks[slot*ks.words:slot*ks.words+ks.words], bits)
			return
		}
	}
	ks.or(k, bits)
}

// or claims the worlds in bits (len words) for key k.
func (ks *maskedKeySet) or(k stateKey, bits []uint64) {
	if 2*(ks.n+1) > len(ks.keys) {
		ks.grow()
	}
	mask := uint64(len(ks.keys) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		if ks.gen[i] != ks.cur {
			ks.keys[i] = k
			setInto(ks.masks[int(i)*ks.words:int(i)*ks.words+ks.words], bits)
			ks.gen[i] = ks.cur
			ks.n++
			return
		}
		if ks.keys[i] == k {
			orInto(ks.masks[int(i)*ks.words:int(i)*ks.words+ks.words], bits)
			return
		}
	}
}

func (ks *maskedKeySet) grow() {
	capOld := len(ks.keys)
	capNew := 1024
	if capOld > 0 {
		capNew = capOld * 2
	}
	oldKeys, oldMasks, oldGen := ks.keys, ks.masks, ks.gen
	ks.keys = make([]stateKey, capNew)
	ks.masks = make([]uint64, capNew*ks.words)
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
				copy(ks.masks[int(j)*ks.words:int(j)*ks.words+ks.words], oldMasks[i*ks.words:i*ks.words+ks.words])
				ks.gen[j] = ks.cur
				break
			}
		}
	}
}

// orInto ORs src into dst word by word.
func orInto(dst, src []uint64) {
	if len(dst) == 1 {
		dst[0] |= src[0]
		return
	}
	for w := range dst {
		dst[w] |= src[w]
	}
}

// setInto copies src into dst word by word: masks are a word or two wide,
// where a loop beats copy's memmove call.
func setInto(dst, src []uint64) {
	if len(dst) == 1 {
		dst[0] = src[0]
		return
	}
	for w := range dst {
		dst[w] = src[w]
	}
}

// liveWorlds sets dst to the parent's worlds minus the capped and the
// already-claimed ones (claimed may be nil) and reports whether any world
// is left.
func liveWorlds(dst, parent, capped, claimed []uint64) bool {
	if len(dst) == 1 { // one word: keep the mask in a register
		p := parent[0] &^ capped[0]
		if claimed != nil {
			p &^= claimed[0]
		}
		dst[0] = p
		return p != 0
	}
	any := false
	for w := range dst {
		p := parent[w] &^ capped[w]
		if claimed != nil {
			p &^= claimed[w]
		}
		dst[w] = p
		any = any || p != 0
	}
	return any
}

// anyUncapped reports whether mask has a live bit outside capMask — i.e.
// whether any world of this parent can still accept candidates this slice.
func anyUncapped(mask, capMask []uint64) bool {
	for w := range mask {
		if mask[w]&^capMask[w] != 0 {
			return true
		}
	}
	return false
}

// fullMask sets dst to the mask with the low numWorlds bits set: every
// world live. dst may be wider than ceil(numWorlds/64); excess words are
// zeroed (the differential tests force extra words to exercise the word
// loops on small scenes).
func fullMask(dst []uint64, numWorlds int) {
	for w := range dst {
		lo := w * 64
		switch {
		case numWorlds >= lo+64:
			dst[w] = ^uint64(0)
		case numWorlds <= lo:
			dst[w] = 0
		default:
			dst[w] = ^uint64(0) >> (64 - uint(numWorlds-lo))
		}
	}
}

// ComputeCounterfactuals expands the reach-tubes of every counterfactual
// world the STI per-actor evaluation needs — the base world (all actors)
// and each single-actor-removed world /i — in ONE pass over the state
// space, instead of the N+1 independent ComputeScratch calls of the naive
// Algorithm 1 loop.
//
// Each frontier state carries a world mask: the set of worlds in which the
// state is a live, dedup-winning member of that world's expansion. A
// candidate transition is integrated and collision-swept once; the actors
// blocking its path determine which worlds it survives in (no blocker →
// every world; exactly actor i → only world /i; two or more distinct
// blockers → none), and per-world dedup and the MaxStates cap are replayed
// exactly through the claimed-key mask and per-world slice counters.
// Because the per-world decisions — expansion order, ε-dedup claims, path
// pruning, cap cut-offs, grid cells marked — are replicated exactly (see
// DESIGN.md §8 for the induction), the resulting volumes are bit-for-bit
// equal to the legacy per-world tubes, not merely equal up to dedup jitter.
//
// The mask is segmented: ceil((1+n)/64) words of 64 bits, so EVERY actor in
// the scene gets a dedicated world (no spillover, no fallback tubes).
//
// Cost: one expansion over the union of the per-world tubes (≈ the largest
// single tube) with one collision sweep per candidate, making the STI
// evaluation ~O(1) in the number of actors rather than O(N).
//
// scr may be nil; as with ComputeScratch the result is identical either
// way.
func ComputeCounterfactuals(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch) SharedTubes {
	return expand(m, obs, ego, cfg, scr, nil, maskWords(obs.NumActors()))
}

// maskWords returns the number of 64-bit words a world mask over n actors
// needs: one bit for the base world plus one per actor.
func maskWords(n int) int { return (1 + n + 63) / 64 }

// expand is the masked expansion behind ComputeCounterfactuals and
// ComputeCounterfactualsWarm, with world masks `words` words wide (callers
// pass maskWords; the differential tests force wider masks). Only the
// candidate stage depends on ws:
//
//   - cold (ws == nil): each candidate is integrated and swept with an
//     early exit once no world survives;
//   - warm: the integration and the sweep verdict come from ws's candidate
//     memo, reused, revalidated against the actors that moved, or swept in
//     full (see warm.go).
//
// Every other decision — root check, broad phase, dedup claims, MaxStates
// cap replay, grid marks, per-world tallies — is made by this one loop for
// both, so the warm result is bitwise the cold one.
func expand(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch, ws *WarmState, words int) SharedTubes {
	n := obs.NumActors()
	numWorlds := 1 + n
	res := SharedTubes{
		WithoutVolume: make([]float64, n),
		Represented:   n,
		MaskWords:     words,
	}
	if scr == nil {
		scr = NewScratch()
	}
	telSharedComputes.Inc()
	telSharedWorlds.Observe(float64(numWorlds))

	scr.resetShared(cfg.CellSize, numWorlds, words)
	grid, claimed := scr.mgrid, scr.claimed
	volCount, sliceCount := scr.wvol, scr.wslice
	possible, capMask, newBits := scr.poss, scr.capMask, scr.newBits
	numSlices, maxStates := cfg.NumSlices(), cfg.MaxStates
	pm, _ := m.(roadmap.PreparedMap)
	states, propagations, pruned := 0, 0, 0

	// Root: each world checks the ego's starting footprint on its own
	// obstacle set (legacy: drivability, then one collide at slice 0).
	egoPb := cfg.Params.Footprint(ego).Prepare()
	fullMask(possible, numWorlds)
	if drivable(m, pm, &egoPb) && obs.maskHits(&egoPb, 0, possible) {
		controls := cfg.controls()
		tans := make([]float64, len(controls))
		for i, u := range controls {
			tans[i] = math.Tan(u.Steer)
		}
		var path []pathState
		if ws == nil {
			path = make([]pathState, cfg.SubSteps)
		} else {
			ws.memo.ensureControls(len(controls), cfg.SubSteps)
		}
		sw := sweeper{m: m, pm: pm, obs: obs, pb: egoPb}
		// The frontier is struct-of-arrays: states in fstates, masks in the
		// flat stride-`words` arena fmasks (state fi owns fmasks[fi*words :
		// (fi+1)*words]); warm runs also track in fsrc the memo slot that
		// produced each state.
		fstates := append(scr.frontier[:0], ego)
		fmasks := append(scr.fmasks[:0], possible...)
		nstates, nmasks := scr.next[:0], scr.nmasks[:0]
		var fsrc, nsrc []int32
		if ws != nil {
			fsrc, nsrc = append(ws.fsrc[:0], -1), ws.nsrc[:0]
		}
		act := scr.mactive

		for slice := 0; slice < numSlices && len(fstates) > 0; slice++ {
			claimed.reset(words)
			clear(sliceCount)
			// capMask accumulates worlds whose per-slice expansion hit
			// MaxStates: legacy breaks out of the slice, so every later
			// candidate is invisible to those worlds.
			clear(capMask)
			// Broad phase: every footprint swept this slice stays within the
			// frontier's AABB grown by the worst-case travel (speed is clamped
			// to [0, MaxSpeed] and gains at most MaxAccel·SliceDt) plus the ego
			// footprint's bounding radius. Actors outside that window cannot
			// change any verdict, so the per-candidate scan skips them.
			fmin, fmax := fstates[0].Pos, fstates[0].Pos
			vmax := fstates[0].Speed
			for _, f := range fstates[1:] {
				if f.Pos.X < fmin.X {
					fmin.X = f.Pos.X
				}
				if f.Pos.Y < fmin.Y {
					fmin.Y = f.Pos.Y
				}
				if f.Pos.X > fmax.X {
					fmax.X = f.Pos.X
				}
				if f.Pos.Y > fmax.Y {
					fmax.Y = f.Pos.Y
				}
				if f.Speed > vmax {
					vmax = f.Speed
				}
			}
			travel := math.Min(vmax+cfg.Params.MaxAccel*cfg.SliceDt, cfg.Params.MaxSpeed) * cfg.SliceDt
			margin := travel + egoPb.Radius + 1e-6
			act = obs.activeInto(act[:0],
				geom.V(fmin.X-margin, fmin.Y-margin), geom.V(fmax.X+margin, fmax.Y+margin), slice)
			sw.act, sw.slice = act, slice
			sw.s0, sw.s1 = obs.slicePair(slice)
			nstates, nmasks = nstates[:0], nmasks[:0]
			for fi := range fstates {
				f := &fstates[fi]
				fmask := fmasks[fi*words : fi*words+words]
				if !anyUncapped(fmask, capMask) {
					continue // every world of this parent already capped
				}
				var base int32
				if ws != nil {
					var existed bool
					base, existed = ws.memo.lookupVia(fsrc[fi], makeWarmKey(*f, int32(slice)))
					if !existed {
						ws.memo.integrate(base, *f, &cfg, controls, tans)
					}
				}
				var sin0, cos0 float64
				if ws == nil {
					sin0, cos0 = math.Sincos(f.Heading)
				}
				for ui, u := range controls {
					ci := base + int32(ui)
					var s2 vehicle.State
					var k stateKey
					var me *warmCtrl
					nsub := 0
					if ws == nil {
						s2, nsub = cfg.integrate(*f, sin0, cos0, u, tans[ui], path)
						k = cfg.key(s2)
					} else {
						me = &ws.memo.ctrls[ci]
						s2, k = me.s2, me.skey
					}
					propagations++
					// possible = worlds whose legacy expansion reaches this
					// candidate and has not already ε-visited its key. Dedup
					// and caps come before the sweep: a duplicate is discarded
					// identically whether or not its path would have been
					// pruned, so its verdict need not be resolved at all.
					claimedBy, slot := claimed.probe(k)
					if !liveWorlds(possible, fmask, capMask, claimedBy) {
						continue
					}
					var live bool
					if me == nil {
						live = sw.sweep(path[:nsub], possible)
					} else {
						if !ws.fresh(me, slice) {
							ws.resolve(&sw, ci, me)
						}
						live = me.apply(possible)
					}
					if !live {
						pruned++
						continue
					}
					claimed.orAt(slot, k, possible)
					grid.Mark(s2.Pos, possible, newBits)
					// Tally per world: each newly covered cell, and each
					// accepted state against the slice's MaxStates cap.
					for w, p := range possible {
						for b := newBits[w]; b != 0; b &= b - 1 {
							volCount[w<<6+bits.TrailingZeros64(b)]++
						}
						for b := p; b != 0; b &= b - 1 {
							tz := bits.TrailingZeros64(b)
							c := sliceCount[w<<6+tz] + 1
							sliceCount[w<<6+tz] = c
							if c >= maxStates {
								capMask[w] |= uint64(1) << uint(tz)
							}
						}
					}
					nstates = append(nstates, s2)
					if words == 1 {
						nmasks = append(nmasks, possible[0])
					} else {
						nmasks = append(nmasks, possible...)
					}
					if ws != nil {
						nsrc = append(nsrc, ci)
					}
					states++
				}
			}
			fstates, nstates = nstates, fstates[:0]
			fmasks, nmasks = nmasks, fmasks[:0]
			fsrc, nsrc = nsrc, fsrc[:0]
		}
		// Hand the (possibly re-grown) slices back for the next reuse.
		scr.frontier, scr.fmasks, scr.next, scr.nmasks, scr.mactive = fstates, fmasks, nstates, nmasks, act
		if ws != nil {
			ws.fsrc, ws.nsrc = fsrc, nsrc
		}
	}

	cs := cfg.CellSize
	// Same expression OccupancyGrid.Area evaluates, so per-world volumes are
	// bitwise what the legacy tubes report.
	res.BaseVolume = float64(volCount[0]) * cs * cs
	for i := 0; i < n; i++ {
		res.WithoutVolume[i] = float64(volCount[1+i]) * cs * cs
	}
	res.States = states
	telSharedStates.Add(int64(states))
	telPropagations.Add(int64(propagations))
	telPruned.Add(int64(pruned))
	return res
}

// sweeper holds what every path sweep of one slice shares: the map, the
// obstacles, the reusable prepared ego footprint, the slice's broad-phase
// survivors and the obstacle slice pair they are tested at.
type sweeper struct {
	m      roadmap.Map
	pm     roadmap.PreparedMap
	obs    *Obstacles
	pb     geom.PreparedBox
	act    []int32
	slice  int
	s0, s1 int
}

// sweep is the cold candidate stage: it moves the footprint along the
// integrated path and strikes from possible every world a substep is
// blocked in. Drivability is world-independent; each substep footprint is
// tested against the broad-phase survivors. A hit by actor i removes every
// world i is present in, leaving at most world /i (bit 1+i), so the
// strikes compose to: no hit keeps possible, hits by i alone keep bit 1+i
// if it was possible, hits by two distinct actors keep nothing. The sweep
// therefore tracks only the first blocker and stops as soon as no world
// survives — by then every world has either pruned the path or never
// examined it. It reports whether any world survives.
func (sw *sweeper) sweep(path []pathState, possible []uint64) bool {
	pb := &sw.pb
	only := int32(-1)
	for j := range path {
		ps := &path[j]
		pb.MoveTo(ps.st.Pos, ps.st.Heading, ps.sin, ps.cos)
		if !drivable(sw.m, sw.pm, pb) {
			return false
		}
		for rest := sw.act; ; {
			h := sw.obs.firstHit(pb, sw.s0, sw.s1, rest)
			if h < 0 {
				break
			}
			if i := rest[h]; i != only {
				if only >= 0 || !hasBit(possible, 1+int(i)) {
					return false
				}
				only = i
			}
			rest = rest[h+1:]
		}
	}
	return only < 0 || strikeOnly(possible, 1+int(only))
}
