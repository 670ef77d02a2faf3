// Quickstart: compute the Safety-Threat Indicator for a hand-built street
// scene — the ego vehicle approaching a slow lead while a second vehicle
// rides alongside in the adjacent lane (compare Fig. 1 of the paper).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/iprism"
)

func main() {
	// A two-lane road, 3.5 m lanes, running along +x.
	road, err := iprism.NewStraightRoad(2, 3.5, -100, 500)
	if err != nil {
		log.Fatal(err)
	}

	// Ego in the outer lane at 10 m/s.
	ego := iprism.VehicleState{Pos: iprism.V(0, 1.75), Speed: 10}

	// A slow lead 14 m ahead and an alongside vehicle blocking the
	// lane-change escape. Note the alongside vehicle never crosses the
	// ego's path — TTC is blind to it, STI is not.
	lead := iprism.NewVehicleActor(1, iprism.VehicleState{Pos: iprism.V(14, 1.75), Speed: 2})
	alongside := iprism.NewVehicleActor(2, iprism.VehicleState{Pos: iprism.V(2, 5.25), Speed: 10})
	actors := []*iprism.Actor{lead, alongside}

	eval := iprism.NewEvaluator(iprism.DefaultReachConfig())
	res, _ := eval.Score(context.Background(), iprism.Query{Map: road, Ego: ego, Actors: actors}, nil)

	fmt.Println("escape-route analysis (reach-tube volumes, m^2):")
	fmt.Printf("  empty world |T^∅| = %.0f\n", res.EmptyVolume)
	fmt.Printf("  all actors  |T|   = %.0f\n", res.BaseVolume)
	for i, a := range actors {
		fmt.Printf("  without #%d  |T/%d| = %.0f\n", a.ID, a.ID, res.WithoutVolume[i])
	}

	fmt.Println("\nSafety-Threat Indicator:")
	fmt.Printf("  lead vehicle      STI = %.2f\n", res.PerActor[0])
	fmt.Printf("  alongside vehicle STI = %.2f  (out of path, still risky)\n", res.PerActor[1])
	fmt.Printf("  combined          STI = %.2f\n", res.Combined)

	idx, v := res.MostThreatening()
	fmt.Printf("\nmost threatening actor: #%d (STI %.2f)\n", actors[idx].ID, v)
}
