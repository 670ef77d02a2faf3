package reach

import (
	"math/bits"

	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Telemetry for the counterfactual expansions (flushed once per call, like
// the single-world counters in reach.go).
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
	// bit-for-bit the volume Compute returns over the same obstacles.
	BaseVolume float64
	// WithoutVolume[i] is |T^{/i}| for each actor i — bit-for-bit the
	// volume Compute returns over obstacles built from every actor
	// but i.
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
// scene. Open addressing with exact key equality (the hash only picks the
// probe start) and a generation stamp for an O(1) reset.
type maskedKeySet struct {
	words int
	keys  []stateKey
	masks []uint64 // stride `words` per slot
	gen   []uint32
	cur   uint32
	n     int
}

func newMaskedKeySet(words int) *maskedKeySet { return &maskedKeySet{words: words, cur: 1} }

// reset empties the set for a new slice, retaining its capacity. The mask
// width is fixed at construction: a Scratch keeps one set per width.
func (ks *maskedKeySet) reset() {
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
// space, instead of N+1 independent single-world Compute calls.
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
// equal to the per-world tubes, not merely equal up to dedup jitter.
//
// The mask is segmented: ceil((1+n)/64) words of 64 bits, so EVERY actor in
// the scene gets a dedicated world (no spillover, no fallback tubes).
//
// Cost: one expansion over the union of the per-world tubes (≈ the largest
// single tube) with one collision sweep per candidate, making the STI
// evaluation ~O(1) in the number of actors rather than O(N).
//
// ws, when non-nil, carries the previous tick's candidate memo of one
// session stream (temporal coherence, see warm.go) and must be owned by
// the calling session for the duration of the call; the result is
// bit-for-bit the cold one. A nil ws is the cold expansion, and its
// WarmStats is zero. scr may be nil; as with Compute the result is
// identical either way.
func ComputeCounterfactuals(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch, ws *WarmState) (SharedTubes, WarmStats) {
	n := obs.NumActors()
	words := maskWords(n)
	if ws != nil {
		return ws.compute(m, obs, ego, cfg, scr, words)
	}
	base, without := expand(m, obs, ego, cfg, scr, nil, 1+n, words)
	return sharedTubes(base, without, words), WarmStats{}
}

// maskWords returns the number of 64-bit words a world mask over n actors
// needs: one bit for the base world plus one per actor.
func maskWords(n int) int { return (1 + n + 63) / 64 }

// sharedTubes packs a counterfactual expansion's base tube and per-world
// volumes into the exported result.
func sharedTubes(base Tube, without []float64, words int) SharedTubes {
	return SharedTubes{
		BaseVolume:    base.Volume,
		WithoutVolume: without,
		Represented:   len(without),
		MaskWords:     words,
		States:        base.States,
	}
}

// expand is Algorithm 1: the one reach expansion behind every tube. It
// expands numWorlds worlds over obs at once, with world masks `words`
// words wide. numWorlds is 1 for a single-world tube (Compute: the base
// world alone, T^∅ when obs is empty), or 1+NumActors to add the
// counterfactual worlds /i (ComputeCounterfactuals, cold or warm; callers
// pass maskWords, the differential tests force wider masks). It returns
// the base world's tube — Volume, Blocked, and for the whole masked
// frontier States, SliceStates and Points — plus |T^{/i}| for each
// counterfactual world carried. Only the candidate stage depends on ws:
//
//   - cold (ws == nil): each parent's control fan is integrated in one
//     pass (integrateFan) and each candidate swept with an early exit once
//     no world survives;
//   - warm: the integration and the sweep verdict come from ws's candidate
//     memo, reused, revalidated against the actors that moved, or swept in
//     full (see warm.go).
//
// Every other decision — root check, broad phase, dedup claims, MaxStates
// cap replay, grid marks, per-world tallies — is made by this one loop for
// both, so the warm result is bitwise the cold one.
func expand(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch, ws *WarmState, numWorlds, words int) (Tube, []float64) {
	numSlices, maxStates := cfg.NumSlices(), cfg.MaxStates
	tube := Tube{SliceStates: make([]int, numSlices)}
	if scr == nil {
		scr = NewScratch()
	}
	single := numWorlds == 1
	if single {
		telComputes.Inc()
	} else {
		telSharedComputes.Inc()
		telSharedWorlds.Observe(float64(numWorlds))
	}

	scr.reset(cfg.CellSize, numWorlds, words)
	grid, claimed := scr.grids[words-1], scr.keySets[words-1]
	volCount, sliceCount := scr.wvol, scr.wslice
	possible, capMask, newBits := scr.poss, scr.capMask, scr.newBits
	pm, _ := m.(roadmap.PreparedMap)
	propagations, pruned := 0, 0

	// Root: each world checks the ego's starting footprint on its own
	// obstacle set (drivability, then one collision test at slice 0).
	egoPb := cfg.Params.Footprint(ego).Prepare()
	fullMask(possible, numWorlds)
	rootLive := false
	if drivable(m, pm, &egoPb) {
		tube.Blocked, rootLive = obs.maskHits(&egoPb, 0, possible)
	}
	if rootLive {
		fan := scr.fan(&cfg)
		if ws != nil {
			ws.memo.ensureControls(len(fan.controls))
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
		act := scr.mactive[:0]

		for slice := 0; slice < numSlices && len(fstates) > 0; slice++ {
			claimed.reset()
			clear(sliceCount)
			// capMask accumulates worlds whose per-slice expansion hit
			// MaxStates: a lone world breaks out of the slice there, so every
			// later candidate is invisible to those worlds.
			clear(capMask)
			if len(obs.boxes) > 0 {
				act = obs.broadPhase(act[:0], fstates, &cfg, egoPb.Radius, slice)
			}
			sw.act, sw.slice = act, slice
			sw.s0, sw.s1 = obs.slicePair(slice)
			nstates, nmasks = nstates[:0], nmasks[:0]
			for fi := range fstates {
				f := &fstates[fi]
				fmask := fmasks[fi*words : fi*words+words]
				if !anyUncapped(fmask, capMask) {
					continue // every world of this parent already capped
				}
				// Control ui's nsub-sub-step path sits at paths[ui*nsub:] of the
				// fan, or from path slot off+ui*nsub of the memo's block.
				var base, off int32
				var nsub int
				if ws == nil {
					nsub = cfg.integrateFan(fan, *f, fan.paths)
				} else {
					// The memoized paths span the sub-step count the parent's
					// speed gives, as when they were integrated.
					nsub = cfg.subSteps(f.Speed)
					var existed bool
					base, off, existed = ws.memo.lookupVia(fsrc[fi], makeWarmKey(*f, int32(slice)), nsub)
					if !existed {
						ws.memo.integrate(base, off, nsub, *f, &cfg, fan)
					}
				}
				for ui := range fan.controls {
					ci := base + int32(ui)
					var s2 vehicle.State
					var k stateKey
					var me *warmCtrl
					if ws == nil {
						s2 = fan.ends[ui]
						k = cfg.key(s2)
					} else {
						me = &ws.memo.ctrls[ci]
						s2, k = me.s2, me.skey
					}
					propagations++
					// possible = worlds whose own expansion reaches this
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
						live = sw.sweep(fan.paths[ui*nsub:ui*nsub+nsub], possible)
					} else {
						if !ws.fresh(me, slice) {
							ws.resolve(&sw, off+int32(ui*nsub), nsub, me)
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
					if cfg.RecordPoints {
						tube.Points = append(tube.Points, s2.Pos)
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
					if single && capMask[0] != 0 {
						// A lone world's slice ends at its cap: the rest of
						// the fan is neither examined nor counted.
						break
					}
				}
			}
			tube.SliceStates[slice] = len(nstates)
			tube.States += len(nstates)
			fstates, nstates = nstates, fstates[:0]
			fmasks, nmasks = nmasks, fmasks[:0]
			fsrc, nsrc = nsrc, fsrc[:0]
		}
		tube.Blocked = tube.Blocked || sw.blocked
		// Hand the (possibly re-grown) slices back for the next reuse.
		scr.frontier, scr.fmasks, scr.next, scr.nmasks, scr.mactive = fstates, fmasks, nstates, nmasks, act
		if ws != nil {
			ws.fsrc, ws.nsrc = fsrc, nsrc
		}
	}

	cs := cfg.CellSize
	// Same expression OccupancyGrid.Area evaluates, so every volume is
	// bitwise what the single-world reference's grid reports.
	tube.Volume = float64(volCount[0]) * cs * cs
	without := make([]float64, numWorlds-1)
	for i := range without {
		without[i] = float64(volCount[1+i]) * cs * cs
	}
	if single {
		telStates.Add(int64(tube.States))
		telTubeVolume.Observe(tube.Volume)
	} else {
		telSharedStates.Add(int64(tube.States))
	}
	telPropagations.Add(int64(propagations))
	telPruned.Add(int64(pruned))
	return tube, without
}

// sweeper holds what every path sweep of one slice shares: the map, the
// obstacles, the reusable prepared ego footprint, the slice's broad-phase
// survivors and the obstacle slice pair they are tested at. blocked
// records whether any sweep of the expansion hit an actor.
type sweeper struct {
	m       roadmap.Map
	pm      roadmap.PreparedMap
	obs     *Obstacles
	pb      geom.PreparedBox
	act     []int32
	slice   int
	s0, s1  int
	blocked bool
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
		for rest := sw.act; len(rest) > 0; {
			h := sw.obs.firstHit(pb, sw.s0, sw.s1, rest)
			if h < 0 {
				break
			}
			sw.blocked = true
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
