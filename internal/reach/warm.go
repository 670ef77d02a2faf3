package reach

import (
	"math"
	"slices"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Temporal-coherence warm start for the shared-expansion engine.
//
// Session traffic scores nearly the same scene every tick: the ego root is
// often bitwise-stable across ticks and most actors move a few centimetres.
// ComputeCounterfactuals given a WarmState exploits that by memoizing, per
// (exact parent state, slice) frontier entry, the two pure quantities the
// cold engine spends nearly all its time on — the bicycle-model
// integration endpoint and the path-sweep collision verdict of each
// control — and replaying every other decision (dedup claims, MaxStates
// caps, grid marks, per-world tallies) from scratch each tick. Because only pure functions
// of bitwise-equal inputs are substituted, the output is bit-for-bit the
// cold engine's; the differential and fuzz suites in warm_test.go / sti
// enforce that bar.
//
// Why a memoized verdict is sound to reuse (DESIGN.md §11 has the long
// form):
//
//   - A path sweep's world-mask effect always collapses to one of a few
//     forms: PASS (no substep hits any actor), ONLY(i) (every hitting
//     substep hits exactly actor i and nobody else), ZERO (two distinct
//     actors hit), or OFFROAD (a substep leaves the drivable area). Each substep
//     intersects the possible-set with the all-worlds mask, a single world
//     bit, or the empty mask; such masks are closed under intersection and
//     ZERO is absorbing, so the composition over substeps is again one of
//     the three forms, independent of the incoming possible-set.
//   - The verdict depends only on the map (immutable within a warm epoch),
//     the swept footprints (pure function of the parent state and control),
//     and the actor footprints overlapping the swept AABB. With a PASS or
//     ONLY verdict the hit-set decomposes per actor: an actor whose
//     footprints at the sweep's two obstacle slices are bitwise-unchanged
//     since the verdict was recorded, or whose changed placements (old AND
//     new) miss the recorded swept AABB, contributes exactly what it
//     contributed then. Only the remaining "suspects" are re-swept, and
//     their fresh hits are merged with the memoized hit-set; the merge is
//     exact because PASS/ONLY verdicts record the hit-set completely (PASS
//     = nobody, ONLY(i) = exactly i) and the drivability of the unchanged
//     path cannot change within an epoch.
//   - ZERO verdicts decompose the same way as long as the complete blocker
//     set was recorded: the sweep records up to three distinct hit actors
//     over the full path, and the verdict is a pure function of that set
//     (empty = PASS, singleton = ONLY, larger = ZERO). Only when a fourth
//     distinct blocker appears does the sweep stop early with an opaque
//     ZERO, which is reused only when no suspect overlaps its recorded
//     swept prefix AABB and fully re-swept otherwise (the prefix AABB
//     suffices: the causes lie entirely within the substeps already swept,
//     and the replayed prefix is bitwise the same path). OFFROAD verdicts
//     depend on no actor at all — only the path (pure) and the map
//     (epoch-immutable) — so they are reused unconditionally for as long
//     as the memo entry lives.
//   - Completeness: the swept AABB lies inside the slice's broad-phase
//     window (each substep footprint stays within the frontier envelope
//     plus the travel+radius margin that defines the window), so every
//     actor that can overlap the path was scanned when the verdict was
//     recorded. An unchanged, unscanned actor cannot newly intersect it.
//
// A WarmState is single-session state: it must never be shared between two
// concurrent computations (sti.WarmState wraps it with an ownership gate).
var (
	telWarmReused      = telemetry.NewCounter("reach.warm.reused_states")
	telWarmInvalidated = telemetry.NewCounter("reach.warm.invalidated_states")
)

// Path-sweep verdict forms (see the collapse argument above). Off-road is
// split out of ZERO because it is actor-independent: the replayed path is
// bitwise the recorded one and the map is immutable within an epoch, so an
// off-road verdict can never flip — it is reused without any suspect check
// for as long as the memo entry lives.
const (
	verdictNone       uint8 = iota // not memoized yet
	verdictPass                    // no actor hit: every incoming world survives
	verdictOnly                    // exactly one actor hit: only its world survives
	verdictZero                    // 2-3 distinct blockers, all recorded: no world survives
	verdictZeroOpaque              // 4+ distinct blockers, sweep stopped early
	verdictOffroad                 // a substep leaves the map: no world survives, ever
)

// warmMaxHits caps the recorded blocker set. A sweep that would exceed it
// degrades to an opaque ZERO — still correct, just revalidated by a full
// re-sweep instead of a per-suspect merge.
const warmMaxHits = 3

// warmMemoMaxParents caps the parent table. A tick that would exceed it
// resets the table instead — correctness is untouched (the next tick just
// runs cold-speed) and a runaway session cannot hold unbounded memory
// (at the default six controls a parent costs about 1.2 KiB at one
// sub-step, 1.6 KiB at two and 2.7 KiB at the five-sub-step bound, table
// slot included, so at most ~90 MiB at this cap).
const warmMemoMaxParents = 1 << 15

// warmPKey identifies a frontier entry: the exact parent state (as raw
// float bits — bitwise equality is what the engine promises, and packed
// words compare faster than floats) and the slice it propagates from (a
// verdict depends on the slice's obstacle footprints, so the same parent
// state reached in a different slice is a different candidate). All
// controls of a parent share one key; their memoized data lives in a
// contiguous block of the control arena, so the hot loop pays one hash
// probe per parent instead of one per control.
type warmPKey [5]uint64

func makeWarmKey(st vehicle.State, slice int32) warmPKey {
	return warmPKey{
		math.Float64bits(st.Pos.X),
		math.Float64bits(st.Pos.Y),
		math.Float64bits(st.Heading),
		math.Float64bits(st.Speed),
		uint64(uint32(slice)),
	}
}

func hashWarmKey(k warmPKey) uint64 {
	h := k[0]
	h = (h ^ k[1]) * 0x9e3779b97f4a7c15
	h = (h ^ k[2]) * 0xff51afd7ed558ccd
	h = (h ^ k[3] ^ k[4]) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	return h
}

// warmCtrl is one memoized (parent, control) candidate: the integration
// endpoint (pure kinematics, never expires within an epoch) plus the latest
// path-sweep verdict, the complete blocker set it collapsed from (when it
// fits warmMaxHits), and the swept AABB it was judged over.
type warmCtrl struct {
	s2         vehicle.State
	pathMin    geom.Vec2
	pathMax    geom.Vec2
	skey       stateKey // dedup key of s2 (pure kinematics, cached with it)
	verdictGen uint32
	hits       [warmMaxHits]int32 // the distinct actors hit, hits[:nhits]
	child      int32              // arena base of s2's own block next slice (a hint, verified by key)
	nhits      uint8
	verdict    uint8
}

// subBox is one substep footprint's AABB, rounded conservatively outward to
// float32. PASS/ONLY sweeps record one per substep; a suspect whose changed
// placements miss every substep box cannot have changed the verdict, so the
// entry is reused without re-integrating the path.
type subBox struct {
	minX, minY, maxX, maxY float32
}

// f32lo / f32hi round a float64 to float32 without crossing it (toward
// -Inf / +Inf), keeping stored substep boxes a superset of the true AABB.
func f32lo(x float64) float32 {
	y := float32(x)
	if float64(y) > x {
		y = math.Nextafter32(y, float32(math.Inf(-1)))
	}
	return y
}

func f32hi(x float64) float32 {
	y := float32(x)
	if float64(y) < x {
		y = math.Nextafter32(y, float32(math.Inf(1)))
	}
	return y
}

type warmParent struct {
	key  warmPKey
	base int32 // nc consecutive warmCtrl slots in the arena
	off  int32 // the block's nc×nsub path and substep-box slots start here
}

// warmBlock is what a control block's index (base/nc) resolves to: the
// parent key it was inserted under and its path-slot offset.
type warmBlock struct {
	key warmPKey
	off int32
}

// warmMemo is the candidate table: parents open-addressed with full key
// equality, generation-stamped so a full reset is O(1); per-control data in
// a flat arena indexed by parent.base. The path and substep-box arenas are
// dense: a parent integrated with nsub sub-steps (a pure function of its
// speed, so fixed for its key) owns exactly nc×nsub slots of each from its
// block offset, control i's nsub at off+i×nsub.
type warmMemo struct {
	parents []warmParent
	gen     []uint32
	ctrls   []warmCtrl
	subs    []subBox    // nsub slots per ctrl: substep AABBs of the last sweep
	paths   []pathState // nsub slots per ctrl: the integrated path, never re-derived
	blocks  []warmBlock // one per block: its key and path-slot offset
	nc      int
	cur     uint32
	n       int
}

// resetAll empties the table (full invalidation / epoch boundary).
func (m *warmMemo) resetAll() {
	m.cur++
	m.n = 0
	m.ctrls = m.ctrls[:0]
	m.subs = m.subs[:0]
	m.paths = m.paths[:0]
	m.blocks = m.blocks[:0]
	if m.cur == 0 { // stamp wrapped: old entries would look live again
		clear(m.gen)
		m.cur = 1
	}
}

// ensureControls pins the per-parent control count for this epoch; a
// mismatch (config change without a full invalidation — defensive, the
// caller's cfg equality check already forces one) restarts the table.
func (m *warmMemo) ensureControls(nc int) {
	if m.nc != nc {
		m.nc = nc
		m.resetAll()
	}
}

// lookupOrInsert returns the arena base and path-slot offset for parent k,
// inserting a fresh zeroed control block with room for nsub sub-steps per
// control on miss. existed reports whether the block carries memoized
// integrations. Both are stable for the rest of the tick (the arenas only
// grow at parent insertion, never between controls).
func (m *warmMemo) lookupOrInsert(k warmPKey, nsub int) (base, off int32, existed bool) {
	if 2*(m.n+1) > len(m.parents) {
		if len(m.parents) >= warmMemoMaxParents {
			// At capacity: restart the table rather than grow without bound.
			m.resetAll()
		} else {
			m.grow()
		}
	}
	mask := uint64(len(m.parents) - 1)
	for i := hashWarmKey(k) & mask; ; i = (i + 1) & mask {
		if m.gen[i] != m.cur {
			base, off = m.newBlock(nsub)
			m.blocks = append(m.blocks, warmBlock{key: k, off: off})
			m.parents[i] = warmParent{key: k, base: base, off: off}
			m.gen[i] = m.cur
			m.n++
			return base, off, false
		}
		if p := &m.parents[i]; p.key == k {
			return p.base, p.off, true
		}
	}
}

// lookupVia resolves parent k through a producing ctrl's child hint,
// falling back to (and refreshing the hint from) the hash table. pci < 0
// means no producer is known (the root frontier entry). The hint is only
// ever trusted after its block key matches exactly, so a stale or clobbered
// hint degrades to one hash probe, never to a wrong block.
func (m *warmMemo) lookupVia(pci int32, k warmPKey, nsub int) (base, off int32, existed bool) {
	if pci >= 0 && int(pci) < len(m.ctrls) {
		if ch := m.ctrls[pci].child; ch >= 0 && int(ch)+m.nc <= len(m.ctrls) {
			if b := &m.blocks[int(ch)/m.nc]; b.key == k {
				return ch, b.off, true
			}
		}
		base, off, existed = m.lookupOrInsert(k, nsub)
		if int(pci) < len(m.ctrls) { // a mid-tick reset may have shrunk the arena
			m.ctrls[pci].child = base
		}
		return base, off, existed
	}
	return m.lookupOrInsert(k, nsub)
}

// integrate fills the fresh control block at base (path slots from off)
// with frontier state f's candidates: the block's nsub-sub-step paths,
// integrated straight into the arena in one fan pass, and every control's
// endpoint and dedup key — pure kinematics that stay valid for the rest of
// the epoch. nsub is cfg.subSteps(f.Speed); readers recompute that count
// from the parent rather than store it.
func (m *warmMemo) integrate(base, off int32, nsub int, f vehicle.State, cfg *Config, fan *controlFan) {
	cfg.integrateFan(fan, f, m.paths[off:int(off)+m.nc*nsub])
	for ui, s2 := range fan.ends {
		me := &m.ctrls[int(base)+ui]
		me.s2 = s2
		me.skey = cfg.key(s2)
	}
}

// newBlock extends the control arena by one zeroed nc-slot block and the
// path and substep-box arenas by nc×nsub slots each (those need no
// zeroing: they are only read through a ctrl entry that wrote them — paths
// at integration, substep AABBs during the sweep), returning the block's
// control base and path-slot offset.
func (m *warmMemo) newBlock(nsub int) (base, off int32) {
	b := len(m.ctrls)
	if b+m.nc <= cap(m.ctrls) {
		m.ctrls = m.ctrls[:b+m.nc]
		clear(m.ctrls[b:])
	} else {
		m.ctrls = append(m.ctrls, make([]warmCtrl, m.nc)...)
	}
	o := len(m.paths)
	want := o + m.nc*nsub
	if want <= cap(m.subs) {
		m.subs = m.subs[:want]
	} else {
		m.subs = append(m.subs, make([]subBox, want-o)...)
	}
	if want <= cap(m.paths) {
		m.paths = m.paths[:want]
	} else {
		m.paths = append(m.paths, make([]pathState, want-o)...)
	}
	return int32(b), int32(o)
}

// ctrlSweep returns the nsub integrated sub-steps at path slot po and
// their substep-AABB slots.
func (m *warmMemo) ctrlSweep(po int32, nsub int) ([]pathState, []subBox) {
	return m.paths[po : int(po)+nsub], m.subs[po : int(po)+nsub]
}

func (m *warmMemo) grow() {
	capOld := len(m.parents)
	capNew := 4096
	if capOld > 0 {
		capNew = capOld * 2
	}
	oldParents, oldGen := m.parents, m.gen
	m.parents = make([]warmParent, capNew)
	m.gen = make([]uint32, capNew)
	if m.cur == 0 {
		m.cur = 1
	}
	mask := uint64(capNew - 1)
	for i, g := range oldGen {
		if g != m.cur {
			continue
		}
		p := &oldParents[i]
		for j := hashWarmKey(p.key) & mask; ; j = (j + 1) & mask {
			if m.gen[j] != m.cur {
				m.parents[j] = *p
				m.gen[j] = m.cur
				break
			}
		}
	}
}

// warmSuspect is one actor whose footprint changed this tick at an
// obstacle slice a given entry slice's sweeps test, with the union AABB of
// its old and new placements there. A memoized verdict whose swept AABB
// misses every suspect box is exact as-is; one that overlaps re-sweeps
// against exactly the overlapping suspects.
type warmSuspect struct {
	idx      int32
	min, max geom.Vec2
}

// roadKey snapshots a map's identity by value: the scene codec materialises
// a fresh map object per request, so pointer identity never matches across
// ticks. Only the stock roadmap types are recognised; anything else is
// never warmed (every tick fully invalidates, which is correct, just not
// fast).
type roadKey struct {
	kind     uint8 // 0 none, 1 straight, 2 ring
	straight roadmap.StraightRoad
	ring     roadmap.RingRoad
}

func roadKeyOf(m roadmap.Map) (roadKey, bool) {
	switch r := m.(type) {
	case *roadmap.StraightRoad:
		return roadKey{kind: 1, straight: *r}, true
	case *roadmap.RingRoad:
		return roadKey{kind: 2, ring: *r}, true
	}
	return roadKey{}, false
}

// WarmState carries one session's cross-tick expansion state: the candidate
// memo, the per-tick suspect lists, and the previous tick's inputs the
// invalidation compares against. It holds no per-tick working memory — that
// still comes from the caller's Scratch exactly as on the cold path.
//
// Ownership: a WarmState belongs to exactly one logical session and must
// not be used by two computations concurrently. The zero value is ready to
// use.
type WarmState struct {
	prevObs  *Obstacles
	prevEgo  vehicle.State
	prevCfg  Config
	prevRoad roadKey

	gen   uint32
	memo  warmMemo
	sus   [][]warmSuspect // per entry slice, this tick's changed actors
	susU  []warmSuspect   // per entry slice, union AABB over sus (fast reject)
	scand []warmSuspect   // per-candidate overlapping-suspect scratch
	sids  []int32         // the actor indices of scand, for revalidate
	fsrc  []int32         // per frontier entry, the ctrl slot that produced it
	nsrc  []int32         // next-frontier counterpart of fsrc
	stats WarmStats       // the current tick's reuse counts
}

// NewWarmState returns an empty warm-start state.
func NewWarmState() *WarmState { return &WarmState{} }

// Reset drops all cross-tick state (session close / pool reuse), retaining
// table capacity.
func (ws *WarmState) Reset() {
	ws.prevObs = nil
	ws.prevEgo = vehicle.State{}
	ws.prevCfg = Config{}
	ws.prevRoad = roadKey{}
	ws.gen = 0
	ws.memo.resetAll()
	for i := range ws.sus {
		ws.sus[i] = ws.sus[i][:0]
	}
}

// Bytes returns the capacity in bytes of ws's memo arenas and tables and
// its per-tick suspect and frontier lists: the memory it retains between
// ticks, Reset included (Reset keeps capacity). The previous tick's
// obstacles, which ws references but does not own, are not counted.
func (ws *WarmState) Bytes() int64 {
	m := &ws.memo
	n := capBytes(m.parents) + capBytes(m.gen) + capBytes(m.ctrls) +
		capBytes(m.subs) + capBytes(m.paths) + capBytes(m.blocks) +
		capBytes(ws.sus) + capBytes(ws.susU) + capBytes(ws.scand) +
		capBytes(ws.sids) + capBytes(ws.fsrc) + capBytes(ws.nsrc)
	for _, l := range ws.sus[:cap(ws.sus)] {
		n += capBytes(l)
	}
	return n
}

// capBytes is the size in bytes of s's backing array.
func capBytes[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// WarmStats reports what the warm engine did for one tick.
type WarmStats struct {
	// Hit is false when the tick fully invalidated (first tick, ego root
	// moved, config/map/actor-count changed): nothing could be reused.
	Hit bool
	// Reused counts candidate propagations whose memoized path-sweep
	// verdict was still valid and reused without re-sweeping.
	Reused int
	// Invalidated counts memoized verdicts that could not be reused as-is
	// (a changed actor overlapped their swept AABB, or they were stale) and
	// had to be re-swept, partially or fully.
	Invalidated int
}

// buildSuspects collects, per entry slice, every actor whose footprint
// changed since the previous tick at an obstacle slice that entry's sweeps
// test (an entry-slice-e sweep tests obstacle slices min(e, ns) and
// min(e+1, ns), so a change at obstacle slice s < ns makes the actor a
// suspect at entry slices s-1 and s, and a change at the final obstacle
// slice ns at every entry slice from ns-1 up to the horizon), with the
// union AABB of the old and new placements at the changed slice. ne is the
// number of entry slices the expansion will run (cfg.NumSlices()).
func (ws *WarmState) buildSuspects(obs *Obstacles, ne int) {
	ns := obs.numSlices
	for cap(ws.sus) < ne {
		ws.sus = append(ws.sus[:cap(ws.sus)], nil)
	}
	ws.sus = ws.sus[:ne]
	if cap(ws.susU) < ne {
		ws.susU = make([]warmSuspect, ne)
	}
	ws.susU = ws.susU[:ne]
	for e := range ws.sus {
		ws.sus[e] = ws.sus[e][:0]
	}
	for i := range obs.boxes {
		prev, cur := ws.prevObs.boxes[i], obs.boxes[i]
		for s := 0; s <= ns; s++ {
			pb, cb := &prev[s], &cur[s]
			if pb.Box == cb.Box {
				continue
			}
			mn := geom.V(math.Min(pb.Min.X, cb.Min.X), math.Min(pb.Min.Y, cb.Min.Y))
			mx := geom.V(math.Max(pb.Max.X, cb.Max.X), math.Max(pb.Max.Y, cb.Max.Y))
			if s < ns {
				if e := s - 1; e >= 0 && e < ne {
					ws.addSuspect(e, int32(i), mn, mx)
				}
				if s < ne {
					ws.addSuspect(s, int32(i), mn, mx)
				}
			} else {
				// Final obstacle slice: clamped into every later entry.
				for e := s - 1; e < ne; e++ {
					if e >= 0 {
						ws.addSuspect(e, int32(i), mn, mx)
					}
				}
			}
		}
	}
}

// addSuspect appends actor i's changed-placement box at entry slice e,
// merging with the actor's previous entry there (an actor changed at both
// tested obstacle slices lands twice in a row — one union box suffices).
func (ws *WarmState) addSuspect(e int, i int32, mn, mx geom.Vec2) {
	l := ws.sus[e]
	if len(l) == 0 {
		ws.susU[e] = warmSuspect{min: mn, max: mx}
	} else {
		u := &ws.susU[e]
		if mn.X < u.min.X {
			u.min.X = mn.X
		}
		if mn.Y < u.min.Y {
			u.min.Y = mn.Y
		}
		if mx.X > u.max.X {
			u.max.X = mx.X
		}
		if mx.Y > u.max.Y {
			u.max.Y = mx.Y
		}
	}
	if k := len(l) - 1; k >= 0 && l[k].idx == i {
		if mn.X < l[k].min.X {
			l[k].min.X = mn.X
		}
		if mn.Y < l[k].min.Y {
			l[k].min.Y = mn.Y
		}
		if mx.X > l[k].max.X {
			l[k].max.X = mx.X
		}
		if mx.Y > l[k].max.Y {
			l[k].max.Y = mx.Y
		}
		return
	}
	ws.sus[e] = append(l, warmSuspect{idx: i, min: mn, max: mx})
}

// overlapping fills ws.scand with the suspects at entry slice e whose boxes
// overlap the swept AABB [pmin, pmax]. The per-slice union AABB rejects
// candidates clear of every changed actor with one test.
func (ws *WarmState) overlapping(e int, pmin, pmax geom.Vec2) []warmSuspect {
	l := ws.sus[e]
	if len(l) == 0 {
		return nil
	}
	if u := &ws.susU[e]; u.min.X > pmax.X || pmin.X > u.max.X || u.min.Y > pmax.Y || pmin.Y > u.max.Y {
		return nil
	}
	out := ws.scand[:0]
	for si := range l {
		sp := &l[si]
		if sp.min.X <= pmax.X && pmin.X <= sp.max.X && sp.min.Y <= pmax.Y && pmin.Y <= sp.max.Y {
			out = append(out, *sp)
		}
	}
	ws.scand = out
	return out
}

// subsOverlap reports whether any recorded substep box overlaps any of the
// overlapping suspects' changed placements. When none does, the suspects
// cannot have altered a PASS/ONLY verdict and it is reused as-is.
func subsOverlap(subs []subBox, cand []warmSuspect) bool {
	for j := range subs {
		sb := &subs[j]
		for si := range cand {
			sp := &cand[si]
			if float64(sb.minX) <= sp.max.X && sp.min.X <= float64(sb.maxX) &&
				float64(sb.minY) <= sp.max.Y && sp.min.Y <= float64(sb.maxY) {
				return true
			}
		}
	}
	return false
}

// ComputeCounterfactualsWarm is ComputeCounterfactuals.
//
// Deprecated: use ComputeCounterfactuals. Kept only because perfbench/
// calls it.
func ComputeCounterfactualsWarm(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch, ws *WarmState) (SharedTubes, WarmStats) {
	return ComputeCounterfactuals(m, obs, ego, cfg, scr, ws)
}

// compute is the warm ComputeCounterfactuals with world masks `words` words wide
// (the differential tests force wider masks than maskWords).
func (ws *WarmState) compute(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch, words int) (SharedTubes, WarmStats) {
	n := obs.NumActors()

	// Warm iff everything the memoized candidates depend on beyond the
	// suspect set is bitwise-unchanged: the exact ego root (ε = 0 — any
	// root motion re-anchors the whole expansion), the configuration, the
	// map by value, and the actor count (world-bit indices shift with it).
	rk, cacheable := roadKeyOf(m)
	warm := cacheable && ws.prevObs != nil && ws.prevEgo == ego && ws.prevCfg == cfg &&
		ws.prevRoad == rk && ws.prevObs.NumActors() == n && ws.prevObs.numSlices == obs.numSlices
	if !warm {
		ws.memo.resetAll()
	}
	ws.gen++
	if ws.gen == 0 { // generation wrapped: stale verdictGens could alias
		ws.memo.resetAll()
		ws.gen = 1
	}
	if warm {
		ws.buildSuspects(obs, cfg.NumSlices())
	} else {
		for e := range ws.sus {
			ws.sus[e] = ws.sus[e][:0]
		}
	}

	ws.stats = WarmStats{Hit: warm}
	base, without := expand(m, obs, ego, cfg, scr, ws, 1+n, words)
	res := sharedTubes(base, without, words)

	ws.prevEgo, ws.prevCfg, ws.prevRoad = ego, cfg, rk
	ws.prevObs = obs
	if !cacheable {
		ws.prevObs = nil // unknown map type: never warm
	}
	telWarmReused.Add(int64(ws.stats.Reused))
	telWarmInvalidated.Add(int64(ws.stats.Invalidated))
	return res, ws.stats
}

// fresh reports whether me's verdict holds this tick as it stands: it was
// resolved earlier this tick (duplicate frontier states re-reach the same
// candidate), or it carries over from the previous tick and no actor
// changed near entry slice `slice`. A carried-over verdict is stamped
// current and counted as reused. This is the common case, kept small
// enough to inline; everything else goes through resolve.
func (ws *WarmState) fresh(me *warmCtrl, slice int) bool {
	if me.verdictGen == ws.gen {
		return true
	}
	if me.verdictGen == ws.gen-1 && me.verdict != verdictNone && len(ws.sus[slice]) == 0 {
		me.verdictGen = ws.gen
		ws.stats.Reused++
		return true
	}
	return false
}

// apply strikes me's verdict into possible, reporting whether any world
// survives.
func (me *warmCtrl) apply(possible []uint64) bool {
	switch me.verdict {
	case verdictPass:
		return true
	case verdictOnly:
		return strikeOnly(possible, 1+int(me.hits[0]))
	}
	return false
}

// resolve brings me, the memo entry whose path starts at path slot po, up
// to date for this tick when fresh cannot. An off-road verdict is reused
// outright: it is actor-independent and never expires within the epoch.
// The previous tick's verdict is reused when no suspect's changed
// placement touches its path; a decomposable one is merged with only the
// overlapping suspects' fresh hits. Anything else is fully re-swept. nsub
// is the sub-step count of the memoized path.
func (ws *WarmState) resolve(sw *sweeper, po int32, nsub int, me *warmCtrl) {
	lastTick := me.verdict != verdictNone && me.verdictGen == ws.gen-1
	me.verdictGen = ws.gen
	path, subs := ws.memo.ctrlSweep(po, nsub)
	switch {
	case me.verdict == verdictOffroad:
		ws.stats.Reused++
		return
	case lastTick:
		sus := ws.overlapping(sw.slice, me.pathMin, me.pathMax)
		switch {
		case len(sus) == 0:
			ws.stats.Reused++
			return
		case me.verdict == verdictZeroOpaque:
			ws.stats.Invalidated++
		case !subsOverlap(subs, sus):
			ws.stats.Reused++
			return
		default:
			ws.stats.Invalidated++
			ws.revalidate(sw, path, sus, subs, me)
			return
		}
	}
	warmSweep(sw, path, subs, me)
}

// hitSet is a sweep's distinct blocking actors, as many as a memoized
// verdict can record.
type hitSet struct {
	ids [warmMaxHits]int32
	n   int
}

// add records actor i, reporting false when i is new and the set is full.
func (h *hitSet) add(i int32) bool {
	for _, id := range h.ids[:h.n] {
		if id == i {
			return true
		}
	}
	if h.n == warmMaxHits {
		return false
	}
	h.ids[h.n] = i
	h.n++
	return true
}

// scan adds every actor in act whose footprint at the sweeper's slice
// pair intersects b, reporting false once the set would overflow. It is
// firstHit's test run to the end of act in one pass: warm sweeps record
// every blocker, so they cannot stop at the first.
func (h *hitSet) scan(sw *sweeper, b *geom.PreparedBox, act []int32) bool {
	for _, i := range act {
		bs := sw.obs.boxes[i]
		a := &bs[sw.s0]
		hit := b.Min.X <= a.Max.X && a.Min.X <= b.Max.X &&
			b.Min.Y <= a.Max.Y && a.Min.Y <= b.Max.Y && b.Intersects(a)
		if !hit {
			a = &bs[sw.s1]
			hit = b.Min.X <= a.Max.X && a.Min.X <= b.Max.X &&
				b.Min.Y <= a.Max.Y && a.Min.Y <= b.Max.Y && b.Intersects(a)
		}
		if hit && !h.add(i) {
			return false
		}
	}
	return true
}

// store writes the set into me with the verdict it collapses to: PASS
// when empty, ONLY for one blocker, ZERO for more.
func (h *hitSet) store(me *warmCtrl) {
	me.hits, me.nhits = h.ids, uint8(h.n)
	switch h.n {
	case 0:
		me.verdict = verdictPass
	case 1:
		me.verdict = verdictOnly
	default:
		me.verdict = verdictZero
	}
}

// warmSweep runs the full path sweep for one candidate, filling me with the
// collapsed verdict, the complete blocker set (when it fits warmMaxHits),
// and the swept AABB (the union of every prepared substep footprint's
// AABB). It also records each substep footprint's AABB into subs,
// conservatively rounded to float32 — the prefilter later ticks use to
// reuse verdicts without re-sweeping. Unlike the cold sweep it does not
// early-exit on a strike — the complete hit-set is what makes the verdict
// decomposable for later ticks — but off-road and a fourth distinct
// blocker are terminal, so it may stop there with the partial AABB (their
// causes lie entirely within the substeps already swept).
func warmSweep(sw *sweeper, path []pathState, subs []subBox, me *warmCtrl) {
	pb := &sw.pb
	var hits hitSet
	var pmin, pmax geom.Vec2
	for j := range path {
		ps := &path[j]
		pb.MoveTo(ps.st.Pos, ps.st.Heading, ps.sin, ps.cos)
		subs[j] = subBox{f32lo(pb.Min.X), f32lo(pb.Min.Y), f32hi(pb.Max.X), f32hi(pb.Max.Y)}
		if j == 0 {
			pmin, pmax = pb.Min, pb.Max
		} else {
			if pb.Min.X < pmin.X {
				pmin.X = pb.Min.X
			}
			if pb.Min.Y < pmin.Y {
				pmin.Y = pb.Min.Y
			}
			if pb.Max.X > pmax.X {
				pmax.X = pb.Max.X
			}
			if pb.Max.Y > pmax.Y {
				pmax.Y = pb.Max.Y
			}
		}
		if !drivable(sw.m, sw.pm, pb) {
			me.verdict, me.nhits = verdictOffroad, 0
			me.pathMin, me.pathMax = pmin, pmax
			return
		}
		if !hits.scan(sw, pb, sw.act) {
			me.verdict, me.nhits = verdictZeroOpaque, 0
			me.pathMin, me.pathMax = pmin, pmax
			return
		}
	}
	hits.store(me)
	me.pathMin, me.pathMax = pmin, pmax
}

// revalidate re-judges a memoized PASS, ONLY, or recorded-ZERO verdict
// against only the overlapping suspects: the memoized hit-set restricted to
// non-suspects is still exact (see the soundness argument at the top of the
// file), so the suspects' fresh hits are merged into it and the verdict is
// re-collapsed from the merged set. The path is the recorded one (read from
// the memo arena, never re-integrated), the map verdict of every substep is
// settled (an off-road path never reaches here), and the stored swept AABB
// still covers it — so neither map tests nor AABB accumulation are
// repeated; substeps whose recorded conservative box misses every suspect
// are skipped outright. Should the merged set outgrow warmMaxHits the
// verdict degrades to an opaque ZERO; the stored full-path AABB remains a
// sound (if loose) cover for its future prefix-AABB reuse test.
func (ws *WarmState) revalidate(sw *sweeper, path []pathState, suspects []warmSuspect, subs []subBox, me *warmCtrl) {
	obs, pb := sw.obs, &sw.pb
	// The union-of-old-and-new suspect boxes decided that this entry must
	// revalidate; the re-sweep itself only tests current placements, so
	// shrink each suspect box (a per-candidate copy) to the AABB of its
	// current boxes at the two tested slices. That tightens the per-substep
	// near gate below without losing any reachable hit.
	ids := ws.sids[:0]
	for si := range suspects {
		sp := &suspects[si]
		a0, a1 := &obs.boxes[sp.idx][sw.s0], &obs.boxes[sp.idx][sw.s1]
		sp.min = geom.V(math.Min(a0.Min.X, a1.Min.X), math.Min(a0.Min.Y, a1.Min.Y))
		sp.max = geom.V(math.Max(a0.Max.X, a1.Max.X), math.Max(a0.Max.Y, a1.Max.Y))
		ids = append(ids, sp.idx)
	}
	ws.sids = ids
	// A recorded blocker that is itself a suspect: its old hits no longer
	// count, the re-sweep below re-derives them.
	var hits hitSet
	for _, h := range me.hits[:me.nhits] {
		if !slices.ContainsFunc(suspects, func(sp warmSuspect) bool { return sp.idx == h }) {
			hits.add(h)
		}
	}
	for j := range path {
		if !subsOverlap(subs[j:j+1], suspects) {
			continue
		}
		ps := &path[j]
		pb.MoveTo(ps.st.Pos, ps.st.Heading, ps.sin, ps.cos)
		if !hits.scan(sw, pb, ids) {
			me.verdict, me.nhits = verdictZeroOpaque, 0
			return
		}
	}
	hits.store(me)
}
