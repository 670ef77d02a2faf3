package sti

import (
	"sync"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/vehicle"
)

func TestRank(t *testing.T) {
	r := Result{PerActor: []float64{0.1, 0.7, 0.3, 0.7}}
	ranks := r.Rank()
	if len(ranks) != 4 {
		t.Fatalf("rank size = %d", len(ranks))
	}
	if ranks[0].Index != 1 || ranks[1].Index != 3 {
		t.Errorf("ties must be stable: %v", ranks)
	}
	if ranks[3].Index != 0 {
		t.Errorf("least threatening = %v", ranks[3])
	}
}

func TestRiskEnvelope(t *testing.T) {
	r := Result{PerActor: []float64{0.05, 0.6, 0.3, 0.0}}
	tests := []struct {
		fraction float64
		want     []int
	}{
		{0.5, []int{1}},       // 0.6/0.95 ≈ 0.63 ≥ 0.5
		{0.9, []int{1, 2}},    // 0.9/0.95 ≈ 0.95 ≥ 0.9
		{1.0, []int{1, 2, 0}}, // zero-STI actor excluded
		{-1, []int{1}},        // clamped to 0 → first nonzero actor
		{2, []int{1, 2, 0}},   // clamped to 1
	}
	for _, tt := range tests {
		got := r.RiskEnvelope(tt.fraction)
		if len(got) != len(tt.want) {
			t.Errorf("RiskEnvelope(%v) = %v, want %v", tt.fraction, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("RiskEnvelope(%v) = %v, want %v", tt.fraction, got, tt.want)
				break
			}
		}
	}
	if got := (Result{}).RiskEnvelope(0.9); got != nil {
		t.Errorf("empty envelope = %v", got)
	}
}

func TestThreatening(t *testing.T) {
	r := Result{PerActor: []float64{0.05, 0.6, 0.3}}
	got := r.Threatening(0.1)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Threatening = %v", got)
	}
	if got := r.Threatening(0.9); len(got) != 0 {
		t.Errorf("Threatening(high) = %v", got)
	}
}

// The evaluator must be safe for concurrent use: the |T^∅| cache is the
// only shared mutable state. Run with -race to validate.
func TestEvaluatorConcurrentUse(t *testing.T) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m := testRoad()
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			actors := []*actor.Actor{
				actor.NewVehicle(1, vehicle.State{Pos: geom.V(12+float64(i%4), 1.75), Speed: 2}),
			}
			results[i] = e.Combined(Query{Map: m, Ego: ego(0, 1.75, 10), Actors: actors})
		}(i)
	}
	wg.Wait()
	// Same inputs must give identical outputs regardless of interleaving.
	for i := 4; i < 16; i++ {
		if results[i] != results[i%4] {
			t.Errorf("concurrent evaluation nondeterministic: %v vs %v", results[i], results[i%4])
		}
	}
}

// Failure injection: degenerate inputs must neither panic nor produce
// out-of-range STI.
func TestEvaluatorRobustness(t *testing.T) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m := testRoad()
	cases := []struct {
		name   string
		ego    vehicle.State
		actors []*actor.Actor
	}{
		{"actor off-map", ego(0, 1.75, 10), []*actor.Actor{
			actor.NewVehicle(1, vehicle.State{Pos: geom.V(0, 500)}),
		}},
		{"actor on top of ego", ego(0, 1.75, 10), []*actor.Actor{
			actor.NewVehicle(1, vehicle.State{Pos: geom.V(0, 1.75)}),
		}},
		{"huge speed actor", ego(0, 1.75, 10), []*actor.Actor{
			actor.NewVehicle(1, vehicle.State{Pos: geom.V(-50, 1.75), Speed: 1e3}),
		}},
		{"zero-size world speeds", vehicle.State{Pos: geom.V(0, 1.75)}, []*actor.Actor{
			actor.NewVehicle(1, vehicle.State{Pos: geom.V(6, 1.75)}),
		}},
		{"many actors", ego(0, 1.75, 10), manyActors(40)},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			res := score(e, Query{Map: m, Ego: tt.ego, Actors: tt.actors})
			if res.Combined < 0 || res.Combined > 1 {
				t.Errorf("combined out of range: %v", res.Combined)
			}
			for i, v := range res.PerActor {
				if v < 0 || v > 1 {
					t.Errorf("actor %d STI out of range: %v", i, v)
				}
			}
		})
	}
}

func manyActors(n int) []*actor.Actor {
	out := make([]*actor.Actor, n)
	for i := range out {
		out[i] = actor.NewVehicle(i+1, vehicle.State{
			Pos:   geom.V(float64(10+i*7), 1.75+float64(i%2)*3.5),
			Speed: float64(i % 15),
		})
	}
	return out
}

// Degenerate trajectories (empty, mismatched sampling) must not panic.
func TestEvaluateDegenerateTrajectories(t *testing.T) {
	e := MustNewEvaluator(reach.DefaultConfig())
	m := testRoad()
	a := actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 2})
	trajs := []actor.Trajectory{{Dt: 0.25}} // empty states, odd dt
	res := score(e, Query{m, ego(0, 1.75, 10), []*actor.Actor{a}, trajs})
	if res.Combined < 0 || res.Combined > 1 {
		t.Errorf("combined = %v", res.Combined)
	}
}
