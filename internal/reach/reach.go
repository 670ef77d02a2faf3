// Package reach implements Algorithm 1 of the iPrism paper: computing the
// ego vehicle's escape routes T_{t:t+k} as a reach-tube. Starting from the
// ego state, the kinematic bicycle model is propagated forward through time
// slices of Δt seconds under a set of control inputs; states that collide
// with (predicted) actor trajectories or leave the drivable area are pruned.
// The tube's state-space volume |T| — the area of the occupancy cells its
// surviving states traverse — quantifies the escape routes available.
package reach

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Telemetry: per-Compute counts are accumulated in locals inside the
// expansion loops and flushed once per tube, keeping the hot path free of
// atomics (collection itself is gated on telemetry.Enable).
var (
	telComputes     = telemetry.NewCounter("reach.computes")
	telStates       = telemetry.NewCounter("reach.states_expanded")
	telPropagations = telemetry.NewCounter("reach.propagations")
	telPruned       = telemetry.NewCounter("reach.pruned")
	telTubeVolume   = telemetry.NewHistogram("reach.tube_volume_m2", telemetry.LinearBuckets(0, 25, 24))
)

// CollisionFunc reports whether the footprint b collides with any obstacle
// during time slice index slice (slice 0 is the current instant). The
// footprint arrives prepared so implementations can run cached broad-phase
// rejections; b is only valid for the duration of the call.
type CollisionFunc func(b *geom.PreparedBox, slice int) bool

// Config holds the reach-tube parameters. The defaults mirror the paper's
// setup: horizon k = 3 s, slices Δt = 0.5 s, boundary-control enumeration
// {0, a_max} × {φ_min, 0, φ_max} (paper optimisation 2), ε-deduplication of
// near-identical states (optimisation 1).
type Config struct {
	Horizon float64 // k: look-ahead in seconds
	SliceDt float64 // Δt: slice length in seconds

	// Samples is the number of extra uniformly spread control samples per
	// state per slice in addition to the boundary set. 0 with BoundaryOnly
	// reproduces the paper's optimised configuration.
	Samples      int
	BoundaryOnly bool

	// Deduplication thresholds (optimisation 1): a new state is ignored if a
	// previously visited state in the same slice lies within these distances.
	PosEps     float64
	HeadingEps float64
	SpeedEps   float64

	// CellSize is the occupancy-grid resolution used to measure |T|.
	CellSize float64

	// MaxStates caps the number of states expanded per slice as a safety
	// valve against pathological configurations.
	MaxStates int

	// SubSteps subdivides each Δt slice when integrating the bicycle model
	// and checking collisions, preventing fast vehicles from tunnelling
	// through obstacles between slice endpoints.
	SubSteps int

	// RecordPoints retains the position of every expanded state in
	// Tube.Points — used by the SVG renderer to draw the reach-tube.
	RecordPoints bool

	Params vehicle.Params
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Horizon:      3.0,
		SliceDt:      0.5,
		Samples:      0,
		BoundaryOnly: true,
		PosEps:       0.5,
		HeadingEps:   0.1,
		SpeedEps:     1.0,
		CellSize:     1.0,
		MaxStates:    4096,
		SubSteps:     5,
		Params:       vehicle.DefaultParams(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("reach: horizon must be positive, got %v", c.Horizon)
	case c.SliceDt <= 0 || c.SliceDt > c.Horizon:
		return fmt.Errorf("reach: slice dt %v must be in (0, horizon=%v]", c.SliceDt, c.Horizon)
	case c.PosEps <= 0 || c.HeadingEps <= 0 || c.SpeedEps <= 0:
		return fmt.Errorf("reach: dedup epsilons must be positive")
	case c.CellSize <= 0:
		return fmt.Errorf("reach: cell size must be positive, got %v", c.CellSize)
	case c.MaxStates < 1:
		return fmt.Errorf("reach: max states must be at least 1, got %d", c.MaxStates)
	case c.SubSteps < 1:
		return fmt.Errorf("reach: sub steps must be at least 1, got %d", c.SubSteps)
	}
	return c.Params.Validate()
}

// NumSlices returns the number of Δt slices covering the horizon.
func (c Config) NumSlices() int {
	return int(math.Round(c.Horizon / c.SliceDt))
}

// Tube is the result of a reach-tube computation.
type Tube struct {
	// Volume is the occupied area (m²) of the cells traversed by surviving
	// trajectories — the paper's |T|.
	Volume float64
	// States is the total number of distinct states expanded.
	States int
	// SliceStates[i] is the surviving frontier size after slice i; a zero
	// entry means no escape route extends past that slice (safety hazard).
	SliceStates []int
	// Points holds every expanded state position when
	// Config.RecordPoints is set; empty otherwise.
	Points []geom.Vec2
}

// Depth returns the number of slices with at least one surviving state.
func (t Tube) Depth() int {
	n := 0
	for _, s := range t.SliceStates {
		if s == 0 {
			break
		}
		n++
	}
	return n
}

// controls returns the control set applied at every expansion: always the
// boundary set {0, a_max} × {φ_min, 0, φ_max} (ensuring the tube boundary is
// covered, per the paper), plus an optional uniform lattice of extra samples.
func (c Config) controls() []vehicle.Control {
	p := c.Params
	out := make([]vehicle.Control, 0, 6+c.Samples)
	for _, a := range [...]float64{0, p.MaxAccel} {
		for _, phi := range [...]float64{-p.MaxSteer, 0, p.MaxSteer} {
			out = append(out, vehicle.Control{Accel: a, Steer: phi})
		}
	}
	if c.BoundaryOnly || c.Samples <= 0 {
		return out
	}
	// Deterministic stratified lattice over the full control rectangle
	// [a_min, a_max] × [-φ_max, φ_max]; determinism keeps every experiment
	// reproducible without threading RNGs through the hot path.
	na := int(math.Ceil(math.Sqrt(float64(c.Samples))))
	nphi := (c.Samples + na - 1) / na
	for i := 0; i < na; i++ {
		for j := 0; j < nphi; j++ {
			fa := (float64(i) + 0.5) / float64(na)
			fp := (float64(j) + 0.5) / float64(nphi)
			out = append(out, vehicle.Control{
				Accel: p.MaxBrake + fa*(p.MaxAccel-p.MaxBrake),
				Steer: -p.MaxSteer + fp*2*p.MaxSteer,
			})
		}
	}
	return out
}

type stateKey struct {
	ix, iy, ih, iv int32
}

func (c Config) key(s vehicle.State) stateKey {
	return stateKey{
		ix: int32(math.Floor(s.Pos.X / c.PosEps)),
		iy: int32(math.Floor(s.Pos.Y / c.PosEps)),
		ih: int32(math.Floor(s.Heading / c.HeadingEps)),
		iv: int32(math.Floor(s.Speed / c.SpeedEps)),
	}
}

// keySet is an open-addressed hash set of stateKeys. It replaces a Go map
// in the expansion loop: insertion is a single linear-probe pass (the map
// needed a lookup followed by a store), clearing is a generation bump
// instead of an O(capacity) wipe, and the hash is a fixed multiply-mix with
// no runtime hashing machinery. Exactness is preserved — membership is
// decided by full key equality, the hash only picks the probe start.
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

func hashKey(k stateKey) uint64 {
	h := uint64(uint32(k.ix)) | uint64(uint32(k.iy))<<32
	h ^= (uint64(uint32(k.ih)) | uint64(uint32(k.iv))<<32) * 0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
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

// Scratch holds the reusable allocations of a reach-tube computation: the
// frontier/next state slices, the per-slice dedup map and the occupancy
// grid. A Scratch amortises the GC churn of the N+2 tube computations per
// STI evaluation; sti.Evaluator pools one per worker. A Scratch must not be
// used by two computations concurrently. The zero value is not usable;
// construct with NewScratch.
type Scratch struct {
	frontier []vehicle.State
	next     []vehicle.State
	visited  *keySet
	grid     *geom.OccupancyGrid

	// Shared-expansion working memory (ComputeCounterfactuals), allocated
	// lazily on first shared use so single-tube scratches stay slim. The
	// shared frontier keeps its states in frontier/next and their world
	// masks in the flat stride-words arenas fmasks/nmasks.
	fmasks  []uint64
	nmasks  []uint64
	claimed *maskedKeySet
	mgrid   *geom.MaskGrid
	wvol    []int    // per-world marked-cell counts
	wslice  []int    // per-world accepted states in the current slice
	mactive []int32  // actors surviving the per-slice broad phase
	poss    []uint64 // per-candidate possible-world mask
	capMask []uint64 // per-slice MaxStates cap mask
	newBits []uint64 // MaskGrid.Mark newly-set-bits buffer

	cfan controlFan // the control set and integration buffers (fan.go)
}

// NewScratch returns an empty scratch ready for ComputeScratch.
func NewScratch() *Scratch {
	return &Scratch{
		frontier: make([]vehicle.State, 0, 64),
		next:     make([]vehicle.State, 0, 64),
		visited:  newKeySet(),
		grid:     geom.NewOccupancyGrid(1),
	}
}

// reset readies the scratch for a computation at the given grid resolution,
// retaining capacity wherever the resolution allows it.
func (s *Scratch) reset(cellSize float64) {
	s.frontier = s.frontier[:0]
	s.next = s.next[:0]
	s.visited.reset()
	if s.grid.CellSize() != cellSize {
		s.grid = geom.NewOccupancyGrid(cellSize)
	} else {
		s.grid.Reset()
	}
}

// resetShared readies the shared-expansion working memory for a masked
// expansion with numWorlds counterfactual worlds packed into `words` 64-bit
// mask words.
func (s *Scratch) resetShared(cellSize float64, numWorlds, words int) {
	if s.claimed == nil {
		s.claimed = newMaskedKeySet(words)
	}
	s.claimed.reset(words)
	s.poss = sizeU64(s.poss, words)
	s.capMask = sizeU64(s.capMask, words)
	s.newBits = sizeU64(s.newBits, words)
	if s.mgrid == nil || s.mgrid.CellSize() != cellSize || s.mgrid.Words() != words {
		s.mgrid = geom.NewMaskGrid(cellSize, words)
	} else {
		s.mgrid.Reset()
	}
	if cap(s.wvol) < numWorlds {
		s.wvol = make([]int, numWorlds)
		s.wslice = make([]int, numWorlds)
	}
	s.wvol = s.wvol[:numWorlds]
	s.wslice = s.wslice[:numWorlds]
	clear(s.wvol)
	clear(s.wslice)
}

// sizeU64 returns a zeroed []uint64 of length n, reusing buf's backing
// array when it is large enough.
func sizeU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Compute runs Algorithm 1: it returns the reach-tube of the ego vehicle on
// map m, with collisions judged by collide (which may be nil for an empty
// world — the T^∅ counterfactual). It allocates fresh working state; hot
// callers should use ComputeScratch.
func Compute(m roadmap.Map, collide CollisionFunc, ego vehicle.State, cfg Config) Tube {
	return ComputeScratch(m, collide, ego, cfg, nil)
}

// ComputeScratch is Compute with caller-provided working memory. scr may be
// nil (fresh allocations); the result is identical either way, and scr can
// be reused for any subsequent computation.
func ComputeScratch(m roadmap.Map, collide CollisionFunc, ego vehicle.State, cfg Config, scr *Scratch) Tube {
	numSlices := cfg.NumSlices()
	if scr == nil {
		scr = NewScratch()
	}
	scr.reset(cfg.CellSize)
	grid := scr.grid
	tube := Tube{SliceStates: make([]int, numSlices)}
	// Resolve the prepared-footprint fast path once per tube; maps outside
	// the roadmap package fall back to DrivableBox.
	pm, _ := m.(roadmap.PreparedMap)

	telComputes.Inc()
	egoPb := cfg.Params.Footprint(ego).Prepare()
	if !drivable(m, pm, &egoPb) || (collide != nil && collide(&egoPb, 0)) {
		// The ego is already off-road or in contact: no escape routes.
		telTubeVolume.Observe(0)
		return tube
	}

	// One prepared footprint reused across every sub-step of the tube —
	// seeded from the start footprint so the half-extents and bounding
	// radius (constant for the whole tube) are prepared exactly once — and
	// the control fan, whose buffers hold the sub-step paths of the
	// frontier state under consideration.
	pb := egoPb
	fan := scr.fan(&cfg)
	stride := cfg.SubSteps
	frontier := append(scr.frontier, ego)
	visited := scr.visited
	next := scr.next
	propagations, pruned := 0, 0

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
				path := fan.paths[ui*stride : ui*stride+nsub]
				propagations++
				k := cfg.key(s2)
				if visited.contains(k) {
					continue
				}
				if !cfg.pathOK(m, pm, collide, path, slice, &pb) {
					pruned++
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
	// Hand the (possibly re-grown) slices back for the next reuse.
	scr.frontier, scr.next = frontier, next
	tube.Volume = grid.Area()
	telStates.Add(int64(tube.States))
	telPropagations.Add(int64(propagations))
	telPruned.Add(int64(pruned))
	telTubeVolume.Observe(tube.Volume)
	return tube
}

func drivable(m roadmap.Map, pm roadmap.PreparedMap, b *geom.PreparedBox) bool {
	if pm != nil {
		return pm.DrivablePrepared(b)
	}
	return m.DrivableBox(b.Box)
}

// pathState is one sub-step of an integrated candidate path, carrying the
// heading sine/cosine the integration maintains so pathOK can prepare
// footprints without recomputing the trigonometry.
type pathState struct {
	st       vehicle.State
	sin, cos float64
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
