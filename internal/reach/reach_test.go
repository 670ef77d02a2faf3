package reach

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

func testRoad() *roadmap.StraightRoad {
	return roadmap.MustStraightRoad(2, 3.5, -50, 500)
}

func egoState(x, y, speed float64) vehicle.State {
	return vehicle.State{Pos: geom.V(x, y), Speed: speed}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"slice bigger than horizon", func(c *Config) { c.SliceDt = 10 }},
		{"zero pos eps", func(c *Config) { c.PosEps = 0 }},
		{"zero heading eps", func(c *Config) { c.HeadingEps = 0 }},
		{"zero speed eps", func(c *Config) { c.SpeedEps = 0 }},
		{"zero cell size", func(c *Config) { c.CellSize = 0 }},
		{"zero max states", func(c *Config) { c.MaxStates = 0 }},
		{"bad vehicle params", func(c *Config) { c.Params.WheelBase = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestNumSlices(t *testing.T) {
	c := DefaultConfig()
	if got := c.NumSlices(); got != 6 {
		t.Errorf("NumSlices = %d, want 6", got)
	}
}

func TestControlsBoundarySet(t *testing.T) {
	c := DefaultConfig()
	cs := c.controls()
	if len(cs) != 6 {
		t.Fatalf("boundary control set size = %d, want 6", len(cs))
	}
	// Must contain all four extreme combinations plus straight coasting.
	want := map[vehicle.Control]bool{
		{Accel: 0, Steer: 0}: false,
		{Accel: c.Params.MaxAccel, Steer: c.Params.MaxSteer}:  false,
		{Accel: c.Params.MaxAccel, Steer: -c.Params.MaxSteer}: false,
		{Accel: 0, Steer: c.Params.MaxSteer}:                  false,
	}
	for _, u := range cs {
		if _, ok := want[u]; ok {
			want[u] = true
		}
	}
	for u, seen := range want {
		if !seen {
			t.Errorf("boundary set missing control %+v", u)
		}
	}
}

func TestControlsWithSampling(t *testing.T) {
	c := DefaultConfig()
	c.BoundaryOnly = false
	c.Samples = 16
	cs := c.controls()
	if len(cs) < 6+16 {
		t.Errorf("sampled control set size = %d, want >= 22", len(cs))
	}
	for _, u := range cs {
		if u.Accel < c.Params.MaxBrake-1e-9 || u.Accel > c.Params.MaxAccel+1e-9 {
			t.Errorf("sampled accel out of range: %v", u.Accel)
		}
		if u.Steer < -c.Params.MaxSteer-1e-9 || u.Steer > c.Params.MaxSteer+1e-9 {
			t.Errorf("sampled steer out of range: %v", u.Steer)
		}
	}
}

func TestComputeEmptyWorld(t *testing.T) {
	tube := Compute(testRoad(), nil, egoState(0, 1.75, 10), DefaultConfig(), nil)
	if tube.Volume <= 0 {
		t.Fatal("empty-world tube should have positive volume")
	}
	if tube.Depth() != DefaultConfig().NumSlices() {
		t.Errorf("empty world should reach full depth, got %d", tube.Depth())
	}
	if tube.States == 0 {
		t.Error("tube should expand states")
	}
}

func TestComputeOffRoadStart(t *testing.T) {
	tube := Compute(testRoad(), nil, egoState(0, 20, 10), DefaultConfig(), nil)
	if tube.Volume != 0 || tube.States != 0 {
		t.Errorf("off-road start should yield empty tube, got %+v", tube)
	}
}

// staticObstacles returns obstacles holding the box b at every slice.
func staticObstacles(b geom.Box, cfg Config) *Obstacles {
	bs := make([]geom.PreparedBox, cfg.NumSlices()+1)
	for s := range bs {
		bs[s] = b.Prepare()
	}
	return &Obstacles{boxes: [][]geom.PreparedBox{bs}, numSlices: cfg.NumSlices()}
}

func TestComputeCollidingStart(t *testing.T) {
	cfg := DefaultConfig()
	everywhere := staticObstacles(geom.NewBox(geom.V(0, 1.75), 1000, 1000, 0), cfg)
	tube := Compute(testRoad(), everywhere, egoState(0, 1.75, 10), cfg, nil)
	if tube.Volume != 0 || !tube.Blocked {
		t.Errorf("colliding start should yield a blocked empty tube, got %+v", tube)
	}
}

func TestComputeBlockedAhead(t *testing.T) {
	// A wall fully covering the road 15 m ahead shrinks the tube relative to
	// the empty world but braking keeps some escape routes alive.
	road := testRoad()
	cfg := DefaultConfig()
	wall := staticObstacles(geom.NewBox(geom.V(20, 3.5), 2, 7, 0), cfg)
	free := Compute(road, nil, egoState(0, 1.75, 10), cfg, nil)
	blocked := Compute(road, wall, egoState(0, 1.75, 10), cfg, nil)
	if blocked.Volume >= free.Volume {
		t.Errorf("blocked volume %v should be < free volume %v", blocked.Volume, free.Volume)
	}
	if blocked.Volume <= 0 {
		t.Error("ego at 10 m/s 15 m from wall can still brake; tube should be non-empty")
	}
}

func TestComputeInescapableTrap(t *testing.T) {
	// Ego at high speed immediately behind a wall: every control collides.
	road := testRoad()
	cfg := DefaultConfig()
	wall := staticObstacles(geom.NewBox(geom.V(8, 3.5), 2, 7, 0), cfg)
	tube := Compute(road, wall, egoState(0, 1.75, 25), cfg, nil)
	if tube.Depth() == cfg.NumSlices() {
		t.Errorf("trap should cut the tube short, depth = %d", tube.Depth())
	}
}

func TestComputeVolumeGrowsWithSpeedRange(t *testing.T) {
	// A faster ego covers more ground over the horizon: volume must grow.
	cfg := DefaultConfig()
	slow := Compute(testRoad(), nil, egoState(0, 1.75, 2), cfg, nil)
	fast := Compute(testRoad(), nil, egoState(0, 1.75, 15), cfg, nil)
	if fast.Volume <= slow.Volume {
		t.Errorf("fast volume %v should exceed slow volume %v", fast.Volume, slow.Volume)
	}
}

func TestComputeDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := Compute(testRoad(), nil, egoState(0, 1.75, 10), cfg, nil)
	b := Compute(testRoad(), nil, egoState(0, 1.75, 10), cfg, nil)
	if a.Volume != b.Volume || a.States != b.States {
		t.Errorf("Compute not deterministic: %+v vs %+v", a, b)
	}
}

func TestComputeMaxStatesCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxStates = 3
	tube := Compute(testRoad(), nil, egoState(0, 1.75, 10), cfg, nil)
	for i, n := range tube.SliceStates {
		if n > 3 {
			t.Errorf("slice %d has %d states, cap is 3", i, n)
		}
	}
}

func TestComputeSamplingCloseToBoundary(t *testing.T) {
	// The paper's optimisation 2 (boundary-control enumeration instead of
	// dense uniform sampling) changes the result only marginally (footnote
	// 5). ε-dedup makes the volume non-monotone in the number of samples, so
	// assert closeness rather than a superset relation.
	cfg := DefaultConfig()
	boundary := Compute(testRoad(), nil, egoState(0, 1.75, 10), cfg, nil)
	cfg.BoundaryOnly = false
	cfg.Samples = 25
	sampled := Compute(testRoad(), nil, egoState(0, 1.75, 10), cfg, nil)
	lo, hi := 0.8*boundary.Volume, 1.25*boundary.Volume
	if sampled.Volume < lo || sampled.Volume > hi {
		t.Errorf("sampled volume %v not within 20%% of boundary volume %v", sampled.Volume, boundary.Volume)
	}
}

func TestBuildObstaclesAndCollide(t *testing.T) {
	cfg := DefaultConfig()
	// One actor dead ahead, stationary.
	a := actor.NewVehicle(1, vehicle.State{Pos: geom.V(10, 1.75)})
	trajs := actor.PredictAll([]*actor.Actor{a}, cfg.NumSlices(), cfg.SliceDt)
	obs := BuildObstacles([]*actor.Actor{a}, trajs, cfg)
	if obs.NumActors() != 1 {
		t.Fatalf("NumActors = %d", obs.NumActors())
	}
	hit := geom.NewBox(geom.V(10, 1.75), 4.7, 2, 0).Prepare()
	if !obs.Collide()(&hit, 0) {
		t.Error("overlapping box should collide")
	}
	if obs.CollideWithout(0)(&hit, 0) {
		t.Error("removing the only actor should clear all collisions")
	}
	miss := geom.NewBox(geom.V(30, 1.75), 4.7, 2, 0).Prepare()
	if obs.Collide()(&miss, 0) {
		t.Error("distant box should not collide")
	}
}

func TestObstaclesMovingActor(t *testing.T) {
	cfg := DefaultConfig()
	// Actor starts at x=20 moving at 10 m/s: at slice 2 (t=1.0s) it is near
	// x=30.
	a := actor.NewVehicle(1, vehicle.State{Pos: geom.V(20, 1.75), Speed: 10})
	trajs := actor.PredictAll([]*actor.Actor{a}, cfg.NumSlices(), cfg.SliceDt)
	obs := BuildObstacles([]*actor.Actor{a}, trajs, cfg)
	probe := geom.NewBox(geom.V(30, 1.75), 4.7, 2, 0).Prepare()
	if obs.Collide()(&probe, 0) {
		t.Error("probe should not collide at t=0")
	}
	if !obs.Collide()(&probe, 2) {
		t.Error("probe should collide at slice 2 when actor arrives")
	}
	// Past-horizon slices clamp to the final footprint.
	final := geom.NewBox(geom.V(20+10*3, 1.75), 4.7, 2, 0).Prepare()
	if !obs.Collide()(&final, 99) {
		t.Error("past-horizon query should clamp to final state")
	}
}

func TestObstaclesBoxAt(t *testing.T) {
	cfg := DefaultConfig()
	a := actor.NewVehicle(1, vehicle.State{Pos: geom.V(5, 1.75), Speed: 2})
	trajs := actor.PredictAll([]*actor.Actor{a}, cfg.NumSlices(), cfg.SliceDt)
	obs := BuildObstacles([]*actor.Actor{a}, trajs, cfg)
	b0 := obs.BoxAt(0, 0)
	if b0.Center != geom.V(5, 1.75) {
		t.Errorf("BoxAt(0,0) center = %v", b0.Center)
	}
	bLast := obs.BoxAt(0, 999)
	if bLast.Center.X <= b0.Center.X {
		t.Error("clamped final box should be ahead of the initial box")
	}
}

func TestComputeActorReducesVolume(t *testing.T) {
	cfg := DefaultConfig()
	road := testRoad()
	ego := egoState(0, 1.75, 10)
	blocker := actor.NewVehicle(1, vehicle.State{Pos: geom.V(15, 1.75), Speed: 2})
	trajs := actor.PredictAll([]*actor.Actor{blocker}, cfg.NumSlices(), cfg.SliceDt)
	obs := BuildObstacles([]*actor.Actor{blocker}, trajs, cfg)

	with := Compute(road, obs, ego, cfg, nil)
	without := Compute(road, obs.without(0), ego, cfg, nil)
	if with.Volume >= without.Volume {
		t.Errorf("blocking actor must reduce volume: with=%v without=%v", with.Volume, without.Volume)
	}
	if !with.Blocked || without.Blocked {
		t.Errorf("Blocked with the actor %v, without %v; want true, false", with.Blocked, without.Blocked)
	}
}

func TestTubeDepth(t *testing.T) {
	tube := Tube{SliceStates: []int{3, 2, 0, 0}}
	if got := tube.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
	tube = Tube{SliceStates: []int{1, 1, 1}}
	if got := tube.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
}
