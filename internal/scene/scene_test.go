package scene

import (
	"math"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

func straightScene() Scene {
	return Scene{
		Version: Version,
		Time:    2.5,
		Ego:     State{X: 0, Y: 1.75, Heading: 0, Speed: 10},
		Road: Road{Kind: "straight", Straight: &StraightRoad{
			Lanes: 2, LaneWidth: 3.5, XMin: -100, XMax: 400,
		}},
		Actors: []Actor{
			{ID: 1, Kind: "vehicle", State: State{X: 14, Y: 1.75, Speed: 3}, Length: 4.7, Width: 2.0},
			{ID: 2, Kind: "pedestrian", State: State{X: 30, Y: 5.25, Speed: 1.2}},
		},
	}
}

func TestRoundTripStraight(t *testing.T) {
	in := straightScene()
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != Version {
		t.Errorf("version = %q, want %q", out.Version, Version)
	}
	if out.Time != in.Time || out.Ego != in.Ego {
		t.Errorf("ego/time changed: %+v vs %+v", out, in)
	}
	if len(out.Actors) != 2 || out.Actors[0].State != in.Actors[0].State ||
		out.Actors[0].ID != in.Actors[0].ID || out.Actors[1].Kind != "pedestrian" {
		t.Errorf("actors changed: %+v", out.Actors)
	}
	if *out.Road.Straight != *in.Road.Straight {
		t.Errorf("road changed: %+v", out.Road.Straight)
	}
}

func TestRoundTripRingWithTrajectory(t *testing.T) {
	in := Scene{
		Version: Version,
		Ego:     State{X: 20, Y: 0, Heading: 1.57, Speed: 8},
		Road:    Road{Kind: "ring", Ring: &RingRoad{InnerR: 14, OuterR: 24}},
		Actors: []Actor{{
			ID: 7, Kind: "vehicle", State: State{X: 0, Y: 20, Heading: 3.14, Speed: 8},
			Trajectory:   []State{{X: 0, Y: 20}, {X: -4, Y: 19}, {X: -8, Y: 17}},
			TrajectoryDt: 0.5,
		}},
	}
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	m, ego, actors, trajs, hasTrajs, err := out.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*roadmap.RingRoad); !ok {
		t.Fatalf("map type %T, want *roadmap.RingRoad", m)
	}
	if ego.Speed != 8 || ego.Pos != geom.V(20, 0) {
		t.Errorf("ego = %v", ego)
	}
	if !hasTrajs {
		t.Fatal("explicit trajectory lost")
	}
	if trajs[0].Dt != 0.5 || trajs[0].Len() != 3 {
		t.Errorf("trajectory = %+v", trajs[0])
	}
	if actors[0].Kind != actor.KindVehicle || actors[0].ID != 7 {
		t.Errorf("actor = %+v", actors[0])
	}
	// Wire omitted the footprint: the vehicle default must be applied.
	if actors[0].Length != 4.7 || actors[0].Width != 2.0 {
		t.Errorf("default footprint not applied: %v x %v", actors[0].Length, actors[0].Width)
	}
}

func TestMaterializeMatchesFromParts(t *testing.T) {
	road := roadmap.MustStraightRoad(3, 3.5, -50, 500)
	ego := vehicle.State{Pos: geom.V(5, 1.75), Heading: 0.1, Speed: 12}
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(25, 5.25), Speed: 9}),
		actor.NewPedestrian(2, vehicle.State{Pos: geom.V(40, 8), Speed: 1}),
	}
	s, err := FromParts(road, ego, actors, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	m2, ego2, actors2, _, hasTrajs, err := out.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if hasTrajs {
		t.Error("no trajectories were encoded")
	}
	if *m2.(*roadmap.StraightRoad) != *road {
		t.Errorf("road = %+v, want %+v", m2, road)
	}
	if ego2 != ego {
		t.Errorf("ego = %v, want %v", ego2, ego)
	}
	if len(actors2) != len(actors) {
		t.Fatalf("actors = %d, want %d", len(actors2), len(actors))
	}
	for i := range actors {
		if *actors2[i] != *actors[i] {
			t.Errorf("actor %d = %+v, want %+v", i, actors2[i], actors[i])
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"not json", `{`, "decode"},
		{"missing version", `{"ego":{}}`, "missing version"},
		{"future version", `{"version":"iprism.scene/v99"}`, "unsupported version"},
		{"wrong document", `{"version":"iprism.trace/v1"}`, "not a scene document"},
		{"unknown road", `{"version":"iprism.scene/v1","road":{"kind":"moebius"}}`, "unknown road kind"},
		{"straight without params", `{"version":"iprism.scene/v1","road":{"kind":"straight"}}`, "without straight parameters"},
		{"bad actor kind", `{"version":"iprism.scene/v1","road":{"kind":"ring","ring":{"inner_r":5,"outer_r":9}},"actors":[{"id":1,"kind":"tank"}]}`, "unknown kind"},
		{"trajectory without dt", `{"version":"iprism.scene/v1","road":{"kind":"ring","ring":{"inner_r":5,"outer_r":9}},"actors":[{"id":1,"kind":"vehicle","trajectory":[{"x":1}]}]}`, "trajectory_dt"},
		// Out-of-range magnitudes are named by field. Unchecked, the first
		// three decode and score STI 0: a garbage scene reported as risk-free.
		{"ego far away and fast", rangeScene(`{"x":1e300,"y":5.25,"speed":1e300}`, rangeActor), "ego.x = "},
		{"ego heading", rangeScene(`{"x":0,"y":5.25,"heading":1e300,"speed":12}`, rangeActor), "ego.heading = "},
		{"actor speed", rangeScene(rangeEgo, `{"id":1,"kind":"vehicle","state":{"x":30,"y":5.25,"speed":-1e300}}`), "actors[0].state.speed = "},
		{"actor yaw rate", rangeScene(rangeEgo, `{"id":1,"kind":"vehicle","state":{"x":30,"y":5.25},"yaw_rate":1e9}`), "actors[0].yaw_rate = "},
		{"actor length", rangeScene(rangeEgo, `{"id":1,"kind":"vehicle","state":{"x":30,"y":5.25},"length":1e6}`), "actors[0].length = "},
		{"actor negative width", rangeScene(rangeEgo, `{"id":1,"kind":"vehicle","state":{"x":30,"y":5.25},"width":-2}`), "actors[0].width = "},
		{"trajectory dt", rangeScene(rangeEgo, `{"id":1,"kind":"vehicle","state":{"x":30,"y":5.25},"trajectory":[{"x":30,"y":5.25}],"trajectory_dt":1e9}`), "actors[0].trajectory_dt = "},
		{"trajectory state", rangeScene(rangeEgo, rangeActor+`,{"id":2,"kind":"vehicle","state":{"x":40,"y":1.75},"trajectory":[{"x":40,"y":1.75},{"x":-1e12,"y":1.75}],"trajectory_dt":0.5}`), "actors[1].trajectory[1].x = "},
		{"lane width", `{"version":"iprism.scene/v1","ego":` + rangeEgo + `,"road":{"kind":"straight","straight":{"lanes":3,"lane_width":1e6,"x_min":-100,"x_max":1000}}}`, "road.straight.lane_width = "},
		{"lanes", `{"version":"iprism.scene/v1","ego":` + rangeEgo + `,"road":{"kind":"straight","straight":{"lanes":1000000,"lane_width":3.5,"x_min":-100,"x_max":1000}}}`, "road.straight.lanes = "},
		{"road extent", `{"version":"iprism.scene/v1","ego":` + rangeEgo + `,"road":{"kind":"straight","straight":{"lanes":3,"lane_width":3.5,"x_min":-100,"x_max":1e300}}}`, "road.straight.x_max = "},
		{"ring radius", `{"version":"iprism.scene/v1","ego":` + rangeEgo + `,"road":{"kind":"ring","ring":{"inner_r":5,"outer_r":1e300}}}`, "road.ring.outer_r = "},
		{"ring centre", `{"version":"iprism.scene/v1","ego":` + rangeEgo + `,"road":{"kind":"ring","ring":{"center_y":-1e7,"inner_r":5,"outer_r":9}}}`, "road.ring.center_y = "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.body))
			if err == nil {
				t.Fatal("decode accepted invalid document")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Parts of the out-of-range cases of TestDecodeRejects: an in-range ego and
// actor, and a scene body on a three-lane straight road.
const (
	rangeEgo   = `{"x":0,"y":5.25,"speed":12}`
	rangeActor = `{"id":1,"kind":"vehicle","state":{"x":30,"y":5.25,"speed":6}}`
)

func rangeScene(ego, actors string) string {
	return `{"version":"iprism.scene/v1","ego":` + ego +
		`,"road":{"kind":"straight","straight":{"lanes":3,"lane_width":3.5,"x_min":-100,"x_max":1000}},"actors":[` + actors + `]}`
}

func TestMaterializeRejectsInvalidRoad(t *testing.T) {
	s := straightScene()
	s.Road.Straight.XMax = s.Road.Straight.XMin // empty extent
	if _, _, _, _, _, err := s.Materialize(); err == nil {
		t.Error("invalid road materialised")
	}
}

// A NaN cannot arrive through JSON, but Validate also guards scenes built
// in process.
func TestValidateRejectsNaN(t *testing.T) {
	s := straightScene()
	s.Actors[1].State.Heading = math.NaN()
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "actors[1].state.heading") {
		t.Errorf("NaN heading: got %v", err)
	}
}
