package iprism_test

import (
	"context"
	"fmt"

	"repro/iprism"
)

// Compute the Safety-Threat Indicator for a scene with a slow lead and an
// alongside vehicle: the alongside vehicle never crosses the ego's path,
// yet it removes escape routes and carries nonzero risk.
func Example() {
	road, _ := iprism.NewStraightRoad(2, 3.5, -100, 500)
	ego := iprism.VehicleState{Pos: iprism.V(0, 1.75), Speed: 10}
	actors := []*iprism.Actor{
		iprism.NewVehicleActor(1, iprism.VehicleState{Pos: iprism.V(14, 1.75), Speed: 2}),
		iprism.NewVehicleActor(2, iprism.VehicleState{Pos: iprism.V(2, 5.25), Speed: 10}),
	}

	eval := iprism.NewEvaluator(iprism.DefaultReachConfig())
	res, _ := eval.Score(context.Background(), iprism.Query{Map: road, Ego: ego, Actors: actors}, nil)

	fmt.Println("lead risky:", res.PerActor[0] > 0)
	fmt.Println("alongside risky:", res.PerActor[1] > 0)
	fmt.Println("combined dominates:", res.Combined >= res.PerActor[0])
	// Output:
	// lead risky: true
	// alongside risky: true
	// combined dominates: true
}

// Rank the actors in a scene by threat and extract the risk envelope.
func ExampleResult_rank() {
	road, _ := iprism.NewStraightRoad(2, 3.5, -100, 500)
	ego := iprism.VehicleState{Pos: iprism.V(0, 1.75), Speed: 10}
	actors := []*iprism.Actor{
		iprism.NewVehicleActor(1, iprism.VehicleState{Pos: iprism.V(200, 5.25), Speed: 10}), // far away
		iprism.NewVehicleActor(2, iprism.VehicleState{Pos: iprism.V(12, 1.75), Speed: 0}),   // blocking
	}
	eval := iprism.NewEvaluator(iprism.DefaultReachConfig())
	res, _ := eval.Score(context.Background(), iprism.Query{Map: road, Ego: ego, Actors: actors}, nil)

	idx, _ := res.MostThreatening()
	fmt.Println("most threatening actor ID:", actors[idx].ID)
	fmt.Println("envelope size:", len(res.RiskEnvelope(0.9)))
	// Output:
	// most threatening actor ID: 2
	// envelope size: 1
}

// Generate scenarios from an NHTSA typology and inspect their
// hyperparameters.
func ExampleGenerateScenarios() {
	scns := iprism.GenerateScenarios(iprism.GhostCutIn, 3, 42)
	fmt.Println("instances:", len(scns))
	fmt.Println("typology:", scns[0].Typology)
	_, hasSpeed := scns[0].Hyper["speed_lane_change"]
	fmt.Println("has cut-in speed:", hasSpeed)
	// Output:
	// instances: 3
	// typology: ghost cut-in
	// has cut-in speed: true
}
