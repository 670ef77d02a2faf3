// Package scene defines the versioned JSON wire format of the scoring API:
// the scene request (the ego vehicle state, the surrounding actors with
// optional predicted trajectories, and the road geometry), the scoring and
// session responses with their error body (score.go), the ?explain=1
// provenance block (provenance.go) and the corpus-job documents (jobs.go).
// It is the one owner of that contract: the scoring service
// (internal/server) answers in it, the gateway (internal/gateway) and the
// load generator (cmd/iprism-loadgen) speak it without linking the
// engine, and the iprism facade re-exports the scene codec for library
// users.
//
// The format is versioned so stored corpora survive schema evolution: every
// document carries `"version": "iprism.scene/v1"` and decoding rejects
// versions it does not understand instead of silently misreading them.
package scene

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// Version is the wire-format identifier this package encodes and decodes.
const Version = "iprism.scene/v1"

// Scene is one scoring request: a road, an ego state, and actors.
type Scene struct {
	Version string `json:"version"`
	// Time stamps the observation in episode seconds; used by the session
	// API's rolling trace, ignored by stateless scoring.
	Time   float64 `json:"time,omitempty"`
	Ego    State   `json:"ego"`
	Road   Road    `json:"road"`
	Actors []Actor `json:"actors,omitempty"`
}

// State is a kinematic vehicle state on the wire.
type State struct {
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Heading float64 `json:"heading"`
	Speed   float64 `json:"speed"`
}

// Actor is a road user on the wire. Trajectory, when present, is the
// client's own prediction sampled every TrajectoryDt seconds (index 0 at
// the scene time); when absent the server predicts with the CVTR model, the
// paper's online configuration.
type Actor struct {
	ID      int     `json:"id"`
	Kind    string  `json:"kind"` // "vehicle" | "pedestrian" | "static"
	State   State   `json:"state"`
	Length  float64 `json:"length,omitempty"`
	Width   float64 `json:"width,omitempty"`
	YawRate float64 `json:"yaw_rate,omitempty"`

	Trajectory   []State `json:"trajectory,omitempty"`
	TrajectoryDt float64 `json:"trajectory_dt,omitempty"`
}

// Road is the drivable-area model, a tagged union over the two map
// families of the paper's evaluation.
type Road struct {
	Kind     string        `json:"kind"` // "straight" | "ring"
	Straight *StraightRoad `json:"straight,omitempty"`
	Ring     *RingRoad     `json:"ring,omitempty"`
}

// StraightRoad mirrors roadmap.StraightRoad.
type StraightRoad struct {
	Lanes     int     `json:"lanes"`
	LaneWidth float64 `json:"lane_width"`
	XMin      float64 `json:"x_min"`
	XMax      float64 `json:"x_max"`
}

// RingRoad mirrors roadmap.RingRoad.
type RingRoad struct {
	CenterX float64 `json:"center_x"`
	CenterY float64 `json:"center_y"`
	InnerR  float64 `json:"inner_r"`
	OuterR  float64 `json:"outer_r"`
}

// toState converts a wire state to the internal representation.
func (s State) toState() vehicle.State {
	return vehicle.State{Pos: geom.V(s.X, s.Y), Heading: s.Heading, Speed: s.Speed}
}

// fromState converts an internal state to the wire representation.
func fromState(s vehicle.State) State {
	return State{X: s.Pos.X, Y: s.Pos.Y, Heading: s.Heading, Speed: s.Speed}
}

var kindByName = map[string]actor.Kind{
	"vehicle":    actor.KindVehicle,
	"pedestrian": actor.KindPedestrian,
	"static":     actor.KindStatic,
}

// Encode marshals a scene, stamping the current Version.
func Encode(s Scene) ([]byte, error) {
	s.Version = Version
	return json.Marshal(s)
}

// Decode unmarshals and validates one scene document.
func Decode(data []byte) (Scene, error) {
	var s Scene
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("scene: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// DecodeReader is Decode over a stream (an HTTP request body).
func DecodeReader(r io.Reader) (Scene, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Scene{}, fmt.Errorf("scene: read: %w", err)
	}
	return Decode(data)
}

// Validate checks the version tag and structural invariants without
// materialising the scene.
func (s Scene) Validate() error {
	switch {
	case s.Version == "":
		return fmt.Errorf("scene: missing version (want %q)", Version)
	case s.Version != Version:
		if strings.HasPrefix(s.Version, "iprism.scene/") {
			return fmt.Errorf("scene: unsupported version %q (this build speaks %q)", s.Version, Version)
		}
		return fmt.Errorf("scene: not a scene document: version %q", s.Version)
	}
	switch s.Road.Kind {
	case "straight":
		if s.Road.Straight == nil {
			return fmt.Errorf("scene: road kind %q without straight parameters", s.Road.Kind)
		}
	case "ring":
		if s.Road.Ring == nil {
			return fmt.Errorf("scene: road kind %q without ring parameters", s.Road.Kind)
		}
	default:
		return fmt.Errorf("scene: unknown road kind %q (want straight|ring)", s.Road.Kind)
	}
	for i, a := range s.Actors {
		if _, ok := kindByName[a.Kind]; !ok {
			return fmt.Errorf("scene: actor %d: unknown kind %q (want vehicle|pedestrian|static)", i, a.Kind)
		}
		if len(a.Trajectory) > 0 && a.TrajectoryDt <= 0 {
			return fmt.Errorf("scene: actor %d: trajectory without positive trajectory_dt", i)
		}
	}
	return s.checkRanges()
}

// Range bounds of the wire format. Validate rejects a value outside them
// (or a NaN) with an error naming the field, so a garbage scene is answered
// with a 400 instead of a meaningless score: unchecked, an ego at x = 1e300
// scores STI 0, i.e. "risk-free". The bounds are generous — every scene the
// scenario generators produce lies well inside them — and keep every
// quantity the reach engine derives from a scene (dedup keys, occupancy
// cells, sub-step counts) finite and exactly representable.
const (
	maxAbsCoordinate = 1e6         // m: positions, road extents, ring centre and radii
	maxAbsSpeed      = 100.0       // m/s: 360 km/h
	maxAbsHeading    = 4 * math.Pi // rad: the [-π, π] and [0, 2π) conventions plus a turn of slack
	maxAbsYawRate    = 100.0       // rad/s: above any finite-difference estimate of a 10 Hz tracker
	maxDimension     = 100.0       // m: actor length and width (0 selects the kind's default)
	maxLanes         = 64
	maxLaneWidth     = 20.0 // m
	maxTrajectoryDt  = 10.0 // s
)

// checkRanges applies the range bounds to every numeric field but time.
// Field paths are only formatted for the error, keeping the common
// all-valid case free of allocations.
func (s Scene) checkRanges() error {
	if b, bad := s.Ego.outOfRange(); bad {
		return b.errorAt("ego.")
	}
	if r := s.Road.Straight; s.Road.Kind == "straight" {
		if r.Lanes < 1 || r.Lanes > maxLanes {
			return fmt.Errorf("scene: road.straight.lanes = %d is out of range [1, %d]", r.Lanes, maxLanes)
		}
		if b, bad := firstOutOfRange(
			bound{"lane_width", r.LaneWidth, 0, maxLaneWidth},
			bound{"x_min", r.XMin, -maxAbsCoordinate, maxAbsCoordinate},
			bound{"x_max", r.XMax, -maxAbsCoordinate, maxAbsCoordinate},
		); bad {
			return b.errorAt("road.straight.")
		}
	}
	if r := s.Road.Ring; s.Road.Kind == "ring" {
		if b, bad := firstOutOfRange(
			bound{"center_x", r.CenterX, -maxAbsCoordinate, maxAbsCoordinate},
			bound{"center_y", r.CenterY, -maxAbsCoordinate, maxAbsCoordinate},
			bound{"inner_r", r.InnerR, 0, maxAbsCoordinate},
			bound{"outer_r", r.OuterR, 0, maxAbsCoordinate},
		); bad {
			return b.errorAt("road.ring.")
		}
	}
	for i, a := range s.Actors {
		if b, bad := a.State.outOfRange(); bad {
			return b.errorAt(fmt.Sprintf("actors[%d].state.", i))
		}
		if b, bad := firstOutOfRange(
			bound{"length", a.Length, 0, maxDimension},
			bound{"width", a.Width, 0, maxDimension},
			bound{"yaw_rate", a.YawRate, -maxAbsYawRate, maxAbsYawRate},
			bound{"trajectory_dt", a.TrajectoryDt, 0, maxTrajectoryDt},
		); bad {
			return b.errorAt(fmt.Sprintf("actors[%d].", i))
		}
		for j, st := range a.Trajectory {
			if b, bad := st.outOfRange(); bad {
				return b.errorAt(fmt.Sprintf("actors[%d].trajectory[%d].", i, j))
			}
		}
	}
	return nil
}

// outOfRange returns the first of the state's fields outside its bounds.
func (st State) outOfRange() (bound, bool) {
	return firstOutOfRange(
		bound{"x", st.X, -maxAbsCoordinate, maxAbsCoordinate},
		bound{"y", st.Y, -maxAbsCoordinate, maxAbsCoordinate},
		bound{"heading", st.Heading, -maxAbsHeading, maxAbsHeading},
		bound{"speed", st.Speed, -maxAbsSpeed, maxAbsSpeed},
	)
}

// bound is one range check: a field name, its value and its bounds.
type bound struct {
	name      string
	v, lo, hi float64
}

// firstOutOfRange returns the first bound whose value lies outside
// [lo, hi]; a NaN lies outside every range.
func firstOutOfRange(bs ...bound) (bound, bool) {
	for _, b := range bs {
		if !(b.lo <= b.v && b.v <= b.hi) {
			return b, true
		}
	}
	return bound{}, false
}

// errorAt reports b as out of range, naming the field by its path: parent
// (ending in ".") followed by the field name.
func (b bound) errorAt(parent string) error {
	return fmt.Errorf("scene: %s%s = %g is out of range [%g, %g]", parent, b.name, b.v, b.lo, b.hi)
}

// Materialize converts the wire scene into the internal types an
// sti.Evaluator consumes. trajs[i] is non-zero only for actors carrying an
// explicit trajectory; hasTrajs reports whether any actor did, in which
// case the caller should pass trajs to Evaluate (missing ones CVTR-predicted)
// rather than predicting everything.
func (s Scene) Materialize() (m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory, hasTrajs bool, err error) {
	if err = s.Validate(); err != nil {
		return nil, vehicle.State{}, nil, nil, false, err
	}
	switch s.Road.Kind {
	case "straight":
		r := s.Road.Straight
		m, err = roadmap.NewStraightRoad(r.Lanes, r.LaneWidth, r.XMin, r.XMax)
	case "ring":
		r := s.Road.Ring
		m, err = roadmap.NewRingRoad(geom.V(r.CenterX, r.CenterY), r.InnerR, r.OuterR)
	}
	if err != nil {
		return nil, vehicle.State{}, nil, nil, false, fmt.Errorf("scene: road: %w", err)
	}
	ego = s.Ego.toState()
	actors = make([]*actor.Actor, len(s.Actors))
	trajs = make([]actor.Trajectory, len(s.Actors))
	for i, wa := range s.Actors {
		a := &actor.Actor{
			ID:      wa.ID,
			Kind:    kindByName[wa.Kind],
			State:   wa.State.toState(),
			Length:  wa.Length,
			Width:   wa.Width,
			YawRate: wa.YawRate,
		}
		// Default footprints per kind so terse hand-written scenes work.
		if a.Length <= 0 || a.Width <= 0 {
			proto := actor.NewVehicle(0, vehicle.State{})
			if a.Kind == actor.KindPedestrian {
				proto = actor.NewPedestrian(0, vehicle.State{})
			}
			if a.Length <= 0 {
				a.Length = proto.Length
			}
			if a.Width <= 0 {
				a.Width = proto.Width
			}
		}
		actors[i] = a
		if len(wa.Trajectory) > 0 {
			states := make([]vehicle.State, len(wa.Trajectory))
			for j, ws := range wa.Trajectory {
				states[j] = ws.toState()
			}
			trajs[i] = actor.Trajectory{Dt: wa.TrajectoryDt, States: states}
			hasTrajs = true
		}
	}
	return m, ego, actors, trajs, hasTrajs, nil
}

// FromParts builds a wire scene from internal types — the inverse of
// Materialize for scenes without explicit trajectories. Supported map
// families are StraightRoad and RingRoad.
func FromParts(m roadmap.Map, ego vehicle.State, actors []*actor.Actor, t float64) (Scene, error) {
	s := Scene{Version: Version, Time: t, Ego: fromState(ego)}
	switch r := m.(type) {
	case *roadmap.StraightRoad:
		s.Road = Road{Kind: "straight", Straight: &StraightRoad{
			Lanes: r.NumLanes, LaneWidth: r.LaneWidth, XMin: r.XMin, XMax: r.XMax,
		}}
	case *roadmap.RingRoad:
		s.Road = Road{Kind: "ring", Ring: &RingRoad{
			CenterX: r.Center.X, CenterY: r.Center.Y, InnerR: r.InnerR, OuterR: r.OuterR,
		}}
	default:
		return s, fmt.Errorf("scene: unsupported map type %T", m)
	}
	s.Actors = make([]Actor, len(actors))
	for i, a := range actors {
		s.Actors[i] = Actor{
			ID:      a.ID,
			Kind:    a.Kind.String(),
			State:   fromState(a.State),
			Length:  a.Length,
			Width:   a.Width,
			YawRate: a.YawRate,
		}
	}
	return s, nil
}
