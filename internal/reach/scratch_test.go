package reach

import (
	"reflect"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// A scratch carried across computations — including across different maps,
// cell sizes and control sets — must never leak state between tubes: every
// result equals the scratch-free computation.
func TestComputeScratchReuseIdentical(t *testing.T) {
	straight := roadmap.MustStraightRoad(2, 3.5, -50, 500)
	ring, err := roadmap.NewRingRoad(geom.V(0, 0), 15, 22)
	if err != nil {
		t.Fatal(err)
	}
	ringPos, ringHeading := ring.PoseAt(ring.MidRadius(), 0)

	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
	}
	cfg := DefaultConfig()
	obs := BuildObstacles(actors, actorTrajectories(actors, cfg), cfg)

	small := DefaultConfig()
	small.CellSize = 0.5
	// A different control set rebuilds the scratch's control fan.
	sampled := DefaultConfig()
	sampled.Samples = 7
	sampled.BoundaryOnly = false

	cases := []struct {
		name string
		m    roadmap.Map
		obs  *Obstacles
		ego  vehicle.State
		cfg  Config
	}{
		{"straight empty", straight, nil, vehicle.State{Pos: geom.V(0, 1.75), Speed: 10}, cfg},
		{"straight obstacles", straight, obs, vehicle.State{Pos: geom.V(0, 1.75), Speed: 10}, cfg},
		{"straight fine grid", straight, nil, vehicle.State{Pos: geom.V(20, 5.25), Speed: 4}, small},
		{"ring", ring, nil, vehicle.State{Pos: ringPos, Heading: ringHeading, Speed: 8}, cfg},
		{"straight sampled", straight, obs, vehicle.State{Pos: geom.V(0, 1.75), Speed: 10}, sampled},
	}

	scr := NewScratch()
	for round := 0; round < 2; round++ { // second round reuses warm scratch
		for _, tc := range cases {
			want := Compute(tc.m, tc.obs, tc.ego, tc.cfg, nil)
			got := Compute(tc.m, tc.obs, tc.ego, tc.cfg, scr)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("round %d %s: scratch result diverges\n got %+v\nwant %+v",
					round, tc.name, got, want)
			}
		}
	}
}

func actorTrajectories(actors []*actor.Actor, cfg Config) []actor.Trajectory {
	return actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
}
