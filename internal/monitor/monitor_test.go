package monitor

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

func TestReset(t *testing.T) {
	mon, err := New(reach.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mon.samples = []Sample{{Time: 1}}
	mon.Reset()
	if len(mon.Samples()) != 0 {
		t.Error("Reset did not clear samples")
	}
	if mon.PeakSTI() != 0 {
		t.Error("peak of empty trace should be 0")
	}
}

func TestSamplesReturnsCopy(t *testing.T) {
	mon := &Monitor{}
	mon.samples = []Sample{{Time: 1, STI: 0.5}, {Time: 2, STI: 0.7}}
	got := mon.Samples()
	got[0].STI = 99 // must not corrupt the monitor's trace
	got[1].Time = -1
	if mon.samples[0].STI != 0.5 || mon.samples[1].Time != 2 {
		t.Errorf("mutating the returned slice corrupted the trace: %+v", mon.samples)
	}
	// Appending to the copy must not leak into the monitor either.
	_ = append(got, Sample{Time: 3})
	if len(mon.samples) != 2 {
		t.Errorf("append to copy grew the trace: %d samples", len(mon.samples))
	}
}

func TestPeakSTISkipsNaN(t *testing.T) {
	mon := &Monitor{}
	mon.samples = []Sample{
		{Time: 0, STI: 0.3},
		{Time: 1, STI: math.NaN()},
		{Time: 2, STI: 0.4},
	}
	if got := mon.PeakSTI(); got != 0.4 {
		t.Errorf("PeakSTI = %v, want 0.4 (NaN skipped)", got)
	}
	mon.samples = []Sample{{Time: 0, STI: math.NaN()}}
	if got := mon.PeakSTI(); got != 0 {
		t.Errorf("PeakSTI of all-NaN trace = %v, want 0", got)
	}
}

func TestRiskyIntervals(t *testing.T) {
	mon := &Monitor{}
	mon.samples = []Sample{
		{Time: 0, STI: 0},
		{Time: 1, STI: 0.4},
		{Time: 2, STI: 0.5},
		{Time: 3, STI: 0},
		{Time: 4, STI: 0.6},
	}
	got := mon.RiskyIntervals(0.3)
	if len(got) != 2 {
		t.Fatalf("intervals = %v", got)
	}
	if got[0] != [2]float64{1, 3} {
		t.Errorf("first interval = %v", got[0])
	}
	if got[1] != [2]float64{4, 4} {
		t.Errorf("open-ended interval = %v", got[1])
	}
	if got := mon.RiskyIntervals(math.Inf(1)); len(got) != 0 {
		t.Errorf("no interval should exceed +Inf: %v", got)
	}
}

// TestObserveConcurrent exercises the streaming entry point the scoring
// service uses: many goroutines observing and querying one monitor. Run
// under -race this validates the locking.
func TestObserveConcurrent(t *testing.T) {
	mon, err := New(reach.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	road := roadmap.MustStraightRoad(2, 3.5, -100, 400)
	ego := vehicle.State{Pos: geom.V(0, 1.75), Speed: 10}
	const goroutines, perG = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				actors := []*actor.Actor{
					actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
				}
				mon.Observe(context.Background(), road, ego, vehicle.DefaultParams(), actors, nil, float64(g*perG+i))
				mon.PeakSTI()
				mon.RiskyIntervals(0.3)
			}
		}(g)
	}
	wg.Wait()
	if got := mon.Len(); got != goroutines*perG {
		t.Errorf("samples = %d, want %d", got, goroutines*perG)
	}
	for _, s := range mon.Samples() {
		if s.STI < 0 || s.STI > 1 {
			t.Errorf("STI out of range: %v", s.STI)
		}
		if s.MostThreatening != 1 && s.MostThreatening != -1 {
			t.Errorf("unexpected most-threatening ID %d", s.MostThreatening)
		}
	}
}
