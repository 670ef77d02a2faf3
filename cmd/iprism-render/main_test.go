package main

import (
	"testing"

	"repro/internal/reach"
	"repro/internal/scenario"
	"repro/internal/sti"
)

// A roundabout frame is driven by the ring pilot, so its ego stays on the
// ring and inside the canvas. Instance 1 collides at step 30: by then the
// cut-in has closed every escape route, so escape routes are checked at an
// earlier frame of the same instance.
func TestRoundaboutFrameStaysOnCanvas(t *testing.T) {
	eval := sti.MustNewEvaluator(reach.DefaultConfig())
	for _, step := range []int{10, 30} {
		scene, err := scenarioFrame(scenario.RoundaboutCutIn, 1, step, 2024)
		if err != nil {
			t.Fatal(err)
		}
		annotate(&scene, eval)
		lo, hi := scene.Map.Bounds()
		if p := scene.Ego.Pos; p.X < lo.X || p.X > hi.X || p.Y < lo.Y || p.Y > hi.Y {
			t.Errorf("step %d: ego at %v lies outside the map bounds %v–%v", step, p, lo, hi)
		}
		if !scene.Map.Drivable(scene.Ego.Pos) {
			t.Errorf("step %d: ego at %v is off the ring", step, scene.Ego.Pos)
		}
		if step == 10 && len(scene.Tube.Points) == 0 {
			t.Errorf("step %d: the frame's reach-tube has no cells", step)
		}
	}
}
