package scenario

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/roadmap"
	"repro/internal/scene"
	"repro/internal/vehicle"
)

// Every scene the generators produce must pass the wire format's range
// validation: fixtures of every typology (the scoring corpora), session
// traces (the monitoring fleet) and crowd scenes, each encoded and decoded
// the way a client sends them.
func TestGeneratedScenesPassWireValidation(t *testing.T) {
	check := func(tag string, sc scene.Scene) {
		t.Helper()
		b, err := scene.Encode(sc)
		if err != nil {
			t.Fatalf("%s: encode: %v", tag, err)
		}
		if _, err := scene.Decode(b); err != nil {
			t.Errorf("%s: %v", tag, err)
		}
	}
	fromParts := func(tag string, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, tm float64) {
		t.Helper()
		sc, err := scene.FromParts(m, ego, actors, tm)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		check(tag, sc)
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for ty := GhostCutIn; ty <= RoundaboutCutIn; ty++ {
		for _, seed := range seeds {
			fx, err := Fixtures(ty, 25, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, sc := range fx {
				check(fmt.Sprintf("%s seed %d fixture %d", ty, seed, i), sc)
			}
		}
	}
	sessions := map[string]func() (roadmap.Map, []SessionTick){
		"stop-and-go": func() (roadmap.Map, []SessionTick) { return StopAndGoSession(12, 200) },
		"ring":        func() (roadmap.Map, []SessionTick) { return RingSession(8, 200) },
		"urban-crush": func() (roadmap.Map, []SessionTick) { return UrbanCrushSession(64, 200) },
	}
	for name, build := range sessions {
		m, ticks := build()
		for i, tk := range ticks {
			fromParts(fmt.Sprintf("%s tick %d", name, i), m, tk.Ego, tk.Actors, 0.1*float64(i))
		}
	}
	for _, n := range []int{12, 64, 128, 256} {
		m, ego, actors := UrbanCrush(n)
		fromParts(fmt.Sprintf("urban crush %d", n), m, ego, actors, 0)
	}
}
