package dataset

import (
	"context"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

// CaseStudy is one of the four §V-D scenes mined from real-world data
// (Fig. 7), rebuilt synthetically: a map, an ego state, and the actor set
// with ground-truth short-horizon motion.
type CaseStudy struct {
	Name   string
	Map    roadmap.Map
	Ego    vehicle.State
	Actors []*actor.Actor
	// KeyActor indexes the actor the paper highlights.
	KeyActor int
}

// Evaluate runs the STI evaluator on the case with CVTR-predicted
// trajectories (the actors carry their recorded yaw rates).
func (c CaseStudy) Evaluate(eval *sti.Evaluator) sti.Result {
	res, _ := eval.Score(context.Background(), sti.Query{Map: c.Map, Ego: c.Ego, Actors: c.Actors}, nil)
	return res
}

// CaseStudies returns the four Fig. 7 scenes.
//
//	(a) pedestrian crossing — the crossing pedestrian dominates risk;
//	(b) oversized actor — an out-of-path vehicle intruding into the ego
//	    lane poses risk despite never crossing the ego's trajectory;
//	(c) cluttered street — an exiting actor carries no risk, an entering
//	    one does, and a badly parked vehicle blocks escape routes;
//	(d) actor pulling out — parked-to-moving actor plus adjacent-lane
//	    traffic constrain the escape routes jointly.
func CaseStudies() []CaseStudy {
	road := roadmap.MustStraightRoad(2, 3.5, -200, 1000)

	pedestrian := func() CaseStudy {
		// The pedestrian is part-way across the road directly ahead; over
		// the 3 s horizon it sweeps both lanes, forcing the ego to stop and
		// yield — it eliminates nearly every forward escape route.
		ped := actor.NewPedestrian(1, vehicle.State{
			Pos: geom.V(10, 1.5), Heading: 1.5708, Speed: 1.0,
		})
		// A vehicle in the adjacent lane has already stopped to yield,
		// closing the lane-1 detour around the pedestrian.
		yielding := actor.NewVehicle(2, vehicle.State{Pos: geom.V(16, 5.25)})
		return CaseStudy{
			Name:     "pedestrian crossing",
			Map:      road,
			Ego:      vehicle.State{Pos: geom.V(0, 1.75), Speed: 9},
			Actors:   []*actor.Actor{ped, yielding},
			KeyActor: 0,
		}
	}()

	oversized := func() CaseStudy {
		truck := actor.NewVehicle(1, vehicle.State{Pos: geom.V(16, 4.3), Speed: 7})
		truck.Length, truck.Width = 10, 3.2 // oversized, spilling into the ego lane
		return CaseStudy{
			Name:     "oversized actor",
			Map:      road,
			Ego:      vehicle.State{Pos: geom.V(0, 1.75), Speed: 9},
			Actors:   []*actor.Actor{truck},
			KeyActor: 0,
		}
	}()

	cluttered := func() CaseStudy {
		exiting := actor.NewVehicle(1, vehicle.State{
			Pos: geom.V(-18, 1.75), Heading: -0.25, Speed: 6, // leaving the road behind the ego
		})
		entering := actor.NewVehicle(2, vehicle.State{
			Pos: geom.V(22, 6.2), Heading: -0.3, Speed: 5, // merging into traffic ahead
		})
		parked := actor.NewVehicle(3, vehicle.State{Pos: geom.V(14, 3.1), Heading: 0.1})
		parked.Kind = actor.KindStatic
		return CaseStudy{
			Name: "cluttered street",
			Map:  road,
			Ego:  vehicle.State{Pos: geom.V(0, 1.75), Speed: 8},
			// The badly parked vehicle partially blocking the ego lane is
			// the scene's dominant threat (the orange box of Fig. 7(c));
			// the entering actor carries secondary risk, the exiting one
			// none.
			Actors:   []*actor.Actor{exiting, entering, parked},
			KeyActor: 2,
		}
	}()

	pullOut := func() CaseStudy {
		top1 := actor.NewVehicle(1, vehicle.State{Pos: geom.V(8, 5.25), Speed: 8})
		top2 := actor.NewVehicle(2, vehicle.State{Pos: geom.V(25, 5.25), Speed: 8})
		puller := actor.NewVehicle(3, vehicle.State{
			Pos: geom.V(18, 0.7), Heading: 0.35, Speed: 3, // pulling out of a kerb spot
		})
		return CaseStudy{
			Name:     "actor pulling out",
			Map:      road,
			Ego:      vehicle.State{Pos: geom.V(0, 1.75), Speed: 8},
			Actors:   []*actor.Actor{top1, top2, puller},
			KeyActor: 2,
		}
	}()

	return []CaseStudy{pedestrian, oversized, cluttered, pullOut}
}
