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

// Telemetry: per-expansion counts are accumulated in locals inside expand
// and flushed once per call, keeping the hot path free of atomics
// (collection itself is gated on telemetry.Enable). reach.computes,
// reach.states_expanded and reach.tube_volume_m2 count single-world tubes
// (Compute); counterfactual expansions have their own reach.shared.*
// series. Propagations and prunes count both.
var (
	telComputes     = telemetry.NewCounter("reach.computes")
	telStates       = telemetry.NewCounter("reach.states_expanded")
	telPropagations = telemetry.NewCounter("reach.propagations")
	telPruned       = telemetry.NewCounter("reach.pruned")
	telTubeVolume   = telemetry.NewHistogram("reach.tube_volume_m2", telemetry.LinearBuckets(0, 25, 24))
)

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
	// Blocked reports whether any actor intersected a footprint the
	// expansion tested: the root or a swept path sub-step. When it is false
	// no actor changed a single verdict, so the tube is exactly the
	// empty-world tube; a one-actor scene's T^{/0} is then T itself.
	Blocked bool
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

func hashKey(k stateKey) uint64 {
	h := uint64(uint32(k.ix)) | uint64(uint32(k.iy))<<32
	h ^= (uint64(uint32(k.ih)) | uint64(uint32(k.iv))<<32) * 0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Scratch holds the reusable working memory of reach-tube expansions: the
// frontier and next state slices with their world masks, the claimed-key
// sets and mask grids and the control fan. sti.Evaluator pools one per
// worker. A Scratch must not be used by two computations concurrently.
// Construct with NewScratch.
type Scratch struct {
	// The frontier is struct-of-arrays: states in frontier/next, their
	// world masks in the flat stride-words arenas fmasks/nmasks.
	frontier []vehicle.State
	next     []vehicle.State
	fmasks   []uint64
	nmasks   []uint64
	// One claimed-key set and one mask grid per mask width (index
	// words-1), kept across expansions of other widths: pooled scratches
	// serve scenes of mixed actor counts, and dropping a table on each
	// width change would regrow it from its smallest size.
	keySets []*maskedKeySet
	grids   []*geom.MaskGrid
	wvol    []int    // per-world marked-cell counts
	wslice  []int    // per-world accepted states in the current slice
	mactive []int32  // actors surviving the per-slice broad phase
	poss    []uint64 // per-candidate possible-world mask
	capMask []uint64 // per-slice MaxStates cap mask
	newBits []uint64 // MaskGrid.Mark newly-set-bits buffer

	cfan controlFan // the control set and integration buffers (fan.go)
}

// NewScratch returns an empty scratch ready for any expansion.
func NewScratch() *Scratch { return &Scratch{} }

// reset readies the scratch for an expansion of numWorlds worlds packed
// into `words` 64-bit mask words at the given grid resolution.
func (s *Scratch) reset(cellSize float64, numWorlds, words int) {
	for len(s.keySets) < words {
		s.keySets = append(s.keySets, nil)
		s.grids = append(s.grids, nil)
	}
	if s.keySets[words-1] == nil {
		s.keySets[words-1] = newMaskedKeySet(words)
	}
	if g := s.grids[words-1]; g == nil || g.CellSize() != cellSize {
		s.grids[words-1] = geom.NewMaskGrid(cellSize, words)
	} else {
		g.Reset()
	}
	s.poss = sizeU64(s.poss, words)
	s.capMask = sizeU64(s.capMask, words)
	s.newBits = sizeU64(s.newBits, words)
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

// noObstacles is the empty world a nil *Obstacles stands for.
var noObstacles Obstacles

// Compute runs Algorithm 1: it returns the reach-tube of the ego vehicle on
// map m among the actors in obs (nil or empty for the empty world — the
// T^∅ counterfactual). scr is caller-provided working memory; a nil scr
// allocates fresh. The result is identical either way, and scr can be
// reused for any subsequent computation. The tube is expand's base world
// alone: one world bit, no counterfactual worlds.
func Compute(m roadmap.Map, obs *Obstacles, ego vehicle.State, cfg Config, scr *Scratch) Tube {
	if obs == nil {
		obs = &noObstacles
	}
	tube, _ := expand(m, obs, ego, cfg, scr, nil, 1, 1)
	return tube
}

func drivable(m roadmap.Map, pm roadmap.PreparedMap, b *geom.PreparedBox) bool {
	if pm != nil {
		return pm.DrivablePrepared(b)
	}
	return m.DrivableBox(b.Box)
}

// pathState is one sub-step of an integrated candidate path, carrying the
// heading sine/cosine the integration maintains so the sweep can prepare
// footprints without recomputing the trigonometry.
type pathState struct {
	st       vehicle.State
	sin, cos float64
}
