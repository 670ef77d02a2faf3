package reach

import (
	"math"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/vehicle"
)

// integrate is the per-control reference for integrateFan: it advances one
// Δt slice under control u alone with vehicle.Params.StepPath, recording
// every intermediate state into path (pre-sized to SubSteps) and returning
// the endpoint plus the number of sub-steps written. sinH, cosH must hold
// sincos(s.Heading).
func (c *Config) integrate(s vehicle.State, sinH, cosH float64, u vehicle.Control, tanSteer float64, path []pathState) (vehicle.State, int) {
	sub := int(math.Ceil(s.Speed * c.SliceDt / (c.Params.Length / 2)))
	if sub < 1 {
		sub = 1
	}
	if sub > c.SubSteps {
		sub = c.SubSteps
	}
	dt := c.SliceDt / float64(sub)
	for j := 0; j < sub; j++ {
		s = c.Params.StepPath(s, u, tanSteer, dt, &sinH, &cosH)
		path[j] = pathState{st: s, sin: sinH, cos: cosH}
	}
	return s, sub
}

// fanConfigs are the control sets the kernel is held to: the paper's
// boundary set, a parameterisation whose half yaw increment exceeds
// SincosSmall's polynomial range (so the math.Sincos fallback runs), and a
// sampled lattice whose controls mostly form no mirrored pairs.
func fanConfigs() map[string]Config {
	fallback := DefaultConfig()
	fallback.Params.MaxSteer = 1.2
	fallback.Params.MaxLatAccel = 0
	fallback.SubSteps = 1
	lattice := DefaultConfig()
	lattice.Samples = 7
	lattice.BoundaryOnly = false
	return map[string]Config{"boundary": DefaultConfig(), "fallback": fallback, "lattice": lattice}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameState(a, b vehicle.State) bool {
	return sameBits(a.Pos.X, b.Pos.X) && sameBits(a.Pos.Y, b.Pos.Y) &&
		sameBits(a.Heading, b.Heading) && sameBits(a.Speed, b.Speed)
}

// requireFanMatches integrates s with the fan kernel and with the
// per-control oracle and requires every sub-step state, its sine and
// cosine, every endpoint and the sub-step count to agree bit for bit.
func requireFanMatches(t *testing.T, tag string, cfg Config, scr *Scratch, s vehicle.State) {
	t.Helper()
	fan := scr.fan(&cfg)
	nsub := cfg.integrateFan(fan, s, fan.paths)
	want := make([]pathState, cfg.SubSteps)
	sin0, cos0 := math.Sincos(s.Heading)
	for ui, u := range fan.controls {
		end, n := cfg.integrate(s, sin0, cos0, u, math.Tan(u.Steer), want)
		if n != nsub {
			t.Fatalf("%s %v control %d: %d sub-steps, oracle %d", tag, s, ui, nsub, n)
		}
		if !sameState(fan.ends[ui], end) {
			t.Fatalf("%s %v control %d: endpoint %v, oracle %v", tag, s, ui, fan.ends[ui], end)
		}
		for j, w := range want[:n] {
			g := fan.paths[ui*nsub+j]
			if !sameState(g.st, w.st) || !sameBits(g.sin, w.sin) || !sameBits(g.cos, w.cos) {
				t.Fatalf("%s %v control %d sub-step %d: %+v, oracle %+v", tag, s, ui, j, g, w)
			}
		}
	}
}

// The fan kernel is bitwise the per-control integration across the speed
// and heading edge cases: standstill, a speed so small its square
// underflows (lateral cap +Inf), both sides of the speed where the cap
// starts to bind, MaxSpeed and the wire's speeds beyond it, negative
// speeds, and headings at ±0, ±π, their neighbours and past one turn.
func TestIntegrateFanMatchesPerControl(t *testing.T) {
	for name, cfg := range fanConfigs() {
		p := cfg.Params
		speeds := []float64{0, math.Copysign(0, -1), 1e-160, 0.3, 1, 12, p.MaxSpeed, math.Nextafter(p.MaxSpeed, 0),
			math.Nextafter(p.MaxSpeed, 200), 31, 57.5, 100, -3}
		if p.MaxLatAccel > 0 {
			// tan(MaxSteer) = MaxLatAccel·L/v² at the threshold speed.
			vt := math.Sqrt(p.MaxLatAccel * p.WheelBase / math.Tan(p.MaxSteer))
			speeds = append(speeds, vt, math.Nextafter(vt, 0), math.Nextafter(vt, 100), vt*0.9, vt*1.1)
		}
		headings := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi,
			math.Nextafter(math.Pi, 0), math.Nextafter(math.Pi, 4), math.Nextafter(-math.Pi, 0), math.Nextafter(-math.Pi, -4),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0.7, -2.1, 3.9 * math.Pi, -3.9 * math.Pi}
		positions := []geom.Vec2{{}, {X: 123.456, Y: -7.89}, {X: -1e6, Y: 1e6}}
		scr := NewScratch()
		for _, v := range speeds {
			for _, h := range headings {
				for _, pos := range positions {
					requireFanMatches(t, name, cfg, scr, vehicle.State{Pos: pos, Heading: h, Speed: v})
				}
			}
		}
	}
}

// The test above only proves sharing if the sharing happens: the boundary
// set must pair its ±φ controls in both acceleration groups, and the
// fallback parameterisation must really leave SincosSmall's polynomial
// range.
func TestIntegrateFanExercisesSharing(t *testing.T) {
	cfgs := fanConfigs()
	cfg := cfgs["boundary"]
	fan := NewScratch().fan(&cfg)
	mirrored := 0
	for _, g := range fan.groups {
		for _, l := range g.lanes {
			if l.mirror >= 0 {
				mirrored++
			}
		}
	}
	if len(fan.groups) != 2 || mirrored != 2 {
		t.Errorf("boundary set: %d acceleration groups with %d mirrored pairs, want 2 and 2", len(fan.groups), mirrored)
	}

	cfg = cfgs["fallback"]
	p := cfg.Params
	v := 5.0
	half := v / p.WheelBase * math.Tan(p.MaxSteer) * cfg.SliceDt / 2
	if half <= 0.35 {
		t.Errorf("fallback config: half yaw increment %v at %v m/s stays within the polynomial range", half, v)
	}
}

// FuzzIntegrateFan holds the kernel to the per-control oracle over states
// within the scene wire's bounds (|x|, |y| ≤ 1e6 m, |heading| ≤ 4π,
// |speed| ≤ 100 m/s).
func FuzzIntegrateFan(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(12.5, -3.25, math.Pi, 4.956)
	f.Add(-1e6, 1e6, -3.9*math.Pi, 100.0)
	f.Add(7.0, 1.75, -0.0, 30.0)
	cfgs := fanConfigs()
	scr := NewScratch()
	f.Fuzz(func(t *testing.T, x, y, heading, speed float64) {
		if !(math.Abs(x) <= 1e6 && math.Abs(y) <= 1e6 && math.Abs(heading) <= 4*math.Pi && math.Abs(speed) <= 100) {
			t.Skip("outside the wire bounds")
		}
		s := vehicle.State{Pos: geom.V(x, y), Heading: heading, Speed: speed}
		for name, cfg := range cfgs {
			requireFanMatches(t, name, cfg, scr, s)
		}
	})
}

// The warm memo keeps each block's sub-step count untruncated: with more
// than 255 sub-steps per slice, the memoized path must still span the
// whole slice, so the parked car 500 m ahead blocks the straight candidate
// in the warm engine exactly as in the cold one.
func TestWarmLongSliceMatchesCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon, cfg.SliceDt, cfg.SubSteps = 25, 25, 300
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	road := roadmap.MustStraightRoad(3, 3.5, -50, 1000)
	ego := egoState(0, 1.75, 30)
	actors := []*actor.Actor{
		actor.NewVehicle(1, egoState(500, 1.75, 0)),
		actor.NewVehicle(2, egoState(500, 5.25, 0)),
		actor.NewVehicle(3, egoState(500, 8.75, 0)),
	}
	obs := BuildObstacles(actors, actorTrajectories(actors, cfg), cfg)
	want, _ := ComputeCounterfactuals(road, obs, ego, cfg, nil, nil)
	if want.BaseVolume != 0 || want.WithoutVolume[0] != 1 || want.WithoutVolume[1] != 0 || want.WithoutVolume[2] != 0 {
		t.Fatalf("cold: base %v without %v, want 0 and [1 0 0]", want.BaseVolume, want.WithoutVolume)
	}
	got, _ := ComputeCounterfactuals(road, obs, ego, cfg, NewScratch(), NewWarmState())
	requireTubesIdentical(t, "long slice", 0, want, got)
}

// BenchmarkIntegrate times one frontier state's control fan, integrated
// per control with StepPath (the reference) and in one integrateFan pass,
// over a spread of speeds and headings.
func BenchmarkIntegrate(b *testing.B) {
	cfg := DefaultConfig()
	var states []vehicle.State
	for _, v := range []float64{0, 2, 6, 11, 17, 24, 30} {
		for _, h := range []float64{-2.5, -0.4, 0, 0.3, 1.9} {
			states = append(states, vehicle.State{Pos: geom.V(10*v, h), Heading: h, Speed: v})
		}
	}
	scr := NewScratch()
	fan := scr.fan(&cfg)
	b.Run("per-control", func(b *testing.B) {
		path := make([]pathState, cfg.SubSteps)
		for i := 0; i < b.N; i++ {
			s := states[i%len(states)]
			sin0, cos0 := math.Sincos(s.Heading)
			for ui, u := range fan.controls {
				benchState, _ = cfg.integrate(s, sin0, cos0, u, fan.tans[ui], path)
			}
		}
	})
	b.Run("fan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg.integrateFan(fan, states[i%len(states)], fan.paths)
		}
	})
}

var benchState vehicle.State
