// Package vehicle implements the kinematic bicycle model used by iPrism for
// reachability analysis and by the simulator for vehicle dynamics (Kong et
// al., "Kinematic and dynamic vehicle models for autonomous driving control
// design", IV 2015 — reference [42] of the paper).
package vehicle

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// State is the kinematic state of a vehicle: rear-axle reference position,
// heading θ (radians), and forward speed v (m/s). It matches the paper's
// x_t^ego = [x, y, θ, v].
type State struct {
	Pos     geom.Vec2
	Heading float64
	Speed   float64
}

// Control is a bicycle-model control input u = (a, φ): longitudinal
// acceleration (m/s²) and front-wheel steering angle (radians).
type Control struct {
	Accel float64
	Steer float64
}

// Params describes a vehicle's physical limits and footprint. The defaults
// follow the bicycle-model parameterisation of Jha et al. [46] / typical
// CARLA sedan dimensions.
type Params struct {
	WheelBase float64 // distance between axles (m)
	Length    float64 // footprint length (m)
	Width     float64 // footprint width (m)
	MaxSpeed  float64 // forward speed cap (m/s)
	MaxAccel  float64 // a_max ≥ 0 (m/s²)
	MaxBrake  float64 // a_min ≤ 0 (m/s²)
	MaxSteer  float64 // |φ| cap (radians)

	// MaxLatAccel caps lateral (centripetal) acceleration, limiting the
	// usable steering angle at speed: tyres cannot hold full steering lock
	// at highway speed. Zero disables the cap.
	MaxLatAccel float64
}

// DefaultParams returns the sedan parameters used throughout the evaluation.
func DefaultParams() Params {
	return Params{
		WheelBase: 2.8,
		Length:    4.7,
		Width:     2.0,
		MaxSpeed:  30.0,
		MaxAccel:  4.0,
		MaxBrake:  -8.0,
		MaxSteer:  0.6,

		MaxLatAccel: 6.0,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.WheelBase <= 0:
		return fmt.Errorf("vehicle: wheel base must be positive, got %v", p.WheelBase)
	case p.Length <= 0 || p.Width <= 0:
		return fmt.Errorf("vehicle: footprint %vx%v must be positive", p.Length, p.Width)
	case p.MaxSpeed <= 0:
		return fmt.Errorf("vehicle: max speed must be positive, got %v", p.MaxSpeed)
	case p.MaxAccel < 0:
		return fmt.Errorf("vehicle: max accel must be non-negative, got %v", p.MaxAccel)
	case p.MaxBrake > 0:
		return fmt.Errorf("vehicle: max brake must be non-positive, got %v", p.MaxBrake)
	case p.MaxSteer <= 0:
		return fmt.Errorf("vehicle: max steer must be positive, got %v", p.MaxSteer)
	case p.MaxLatAccel < 0:
		return fmt.Errorf("vehicle: max lateral accel must be non-negative, got %v", p.MaxLatAccel)
	}
	return nil
}

// SteerLimit returns the largest usable steering magnitude at speed v: the
// smaller of the mechanical limit and the angle at which centripetal
// acceleration v²·tan(φ)/L reaches MaxLatAccel.
func (p Params) SteerLimit(v float64) float64 {
	if p.MaxLatAccel <= 0 || v <= 0 {
		return p.MaxSteer
	}
	limit := math.Atan(p.MaxLatAccel * p.WheelBase / (v * v))
	return math.Min(p.MaxSteer, limit)
}

// ClampControl restricts a control input to the vehicle's limits.
func (p Params) ClampControl(u Control) Control {
	return Control{
		Accel: geom.Clamp(u.Accel, p.MaxBrake, p.MaxAccel),
		Steer: geom.Clamp(u.Steer, -p.MaxSteer, p.MaxSteer),
	}
}

// Step advances a state by dt seconds under control u using the kinematic
// bicycle model:
//
//	ẋ = v cos θ,  ẏ = v sin θ,  θ̇ = (v / L) tan φ,  v̇ = a
//
// Controls are clamped to the vehicle limits and speed is clamped to
// [0, MaxSpeed]: vehicles do not reverse in any iPrism scenario.
func (p Params) Step(s State, u Control, dt float64) State {
	u = p.ClampControl(u)
	// Enforce the lateral-acceleration cap at the current speed.
	if lim := p.SteerLimit(s.Speed); u.Steer > lim {
		u.Steer = lim
	} else if u.Steer < -lim {
		u.Steer = -lim
	}
	// Integrate speed first with midpoint speed for position (semi-implicit,
	// stable at the 0.1 s steps used by the simulator).
	v0 := s.Speed
	v1 := geom.Clamp(v0+u.Accel*dt, 0, p.MaxSpeed)
	vMid := (v0 + v1) / 2
	yawRate := 0.0
	if p.WheelBase > 0 {
		yawRate = vMid / p.WheelBase * math.Tan(u.Steer)
	}
	heading := geom.NormalizeAngle(s.Heading + yawRate*dt)
	// Advance position along the average heading for second-order accuracy.
	avgHeading := geom.NormalizeAngle(s.Heading + yawRate*dt/2)
	sin, cos := math.Sincos(avgHeading)
	return State{
		Pos:     s.Pos.Add(geom.V(vMid*cos*dt, vMid*sin*dt)),
		Heading: heading,
		Speed:   v1,
	}
}

// StepPath is Step in the form the reach-tube integration uses, and the
// reference semantics of reach's integrateFan, which computes the same
// values for a whole control fan at once and is tested bit for bit against
// this function. The caller supplies tan(u.Steer) precomputed once per
// control (the control set is fixed per tube, while Step recomputes the
// tangent per sub-step), u already within the vehicle limits
// (reach.Config.controls guarantees this), and *sinH, *cosH holding
// sincos(s.Heading); on return they hold sincos of the new heading.
//
// The speed-dependent steering cap is applied in tangent space: tan is
// monotonic on (-π/2, π/2), so clamping tan φ to tan(SteerLimit(v)) =
// MaxLatAccel·L/v² selects the same effective yaw rate SteerLimit followed
// by tan would, without the atan/tan round-trip.
//
// Carrying the heading's sine and cosine lets the per-step trigonometry
// collapse to one small-angle sincos of the yaw increment plus two planar
// rotations (for the position update's average heading and for the new
// heading), instead of two full Sincos calls. Positions agree with Step to
// ~1 ulp; the heading value itself is computed with the same arithmetic as
// Step.
func (p Params) StepPath(s State, u Control, tanSteer, dt float64, sinH, cosH *float64) State {
	if p.MaxLatAccel > 0 && s.Speed > 0 {
		if lim := p.MaxLatAccel * p.WheelBase / (s.Speed * s.Speed); tanSteer > lim {
			tanSteer = lim
		} else if tanSteer < -lim {
			tanSteer = -lim
		}
	}
	v0 := s.Speed
	v1 := geom.Clamp(v0+u.Accel*dt, 0, p.MaxSpeed)
	vMid := (v0 + v1) / 2
	yawRate := 0.0
	if p.WheelBase > 0 {
		yawRate = vMid / p.WheelBase * tanSteer
	}
	heading := geom.NormalizeAngle(s.Heading + yawRate*dt)
	// Rotate the carried (sin, cos) by half the yaw increment twice: once to
	// the average heading the position update integrates along, once more to
	// the end-of-step heading.
	sh, ch := SincosSmall(yawRate * dt / 2)
	s0, c0 := *sinH, *cosH
	sinAvg := s0*ch + c0*sh
	cosAvg := c0*ch - s0*sh
	*sinH = sinAvg*ch + cosAvg*sh
	*cosH = cosAvg*ch - sinAvg*sh
	return State{
		Pos:     s.Pos.Add(geom.V(vMid*cosAvg*dt, vMid*sinAvg*dt)),
		Heading: heading,
		Speed:   v1,
	}
}

// SincosSmall evaluates sincos for the small per-sub-step yaw increments of
// StepPath (|x| ≲ 0.3 rad for any physical parameterisation) with Taylor
// polynomials accurate to < 1 ulp over |x| ≤ 0.35, falling back to
// math.Sincos outside that range. Both branches are odd in sin and even in
// cos bit for bit — SincosSmall(-x) is exactly (-sin, cos) — which lets
// reach's integrateFan share one evaluation between ±φ controls.
func SincosSmall(x float64) (sin, cos float64) {
	if x > 0.35 || x < -0.35 {
		return math.Sincos(x)
	}
	x2 := x * x
	sin = x * (1 + x2*(-1.0/6+x2*(1.0/120+x2*(-1.0/5040+x2*(1.0/362880+x2*(-1.0/39916800))))))
	cos = 1 + x2*(-1.0/2+x2*(1.0/24+x2*(-1.0/720+x2*(1.0/40320+x2*(-1.0/3628800+x2*(1.0/479001600))))))
	return sin, cos
}

// Footprint returns the oriented bounding box occupied by a vehicle with
// parameters p at state s. The reference point is the footprint centre.
func (p Params) Footprint(s State) geom.Box {
	return geom.NewBox(s.Pos, p.Length, p.Width, s.Heading)
}

// StoppingDistance returns the distance needed to brake from speed v to rest
// at maximal braking.
func (p Params) StoppingDistance(v float64) float64 {
	if p.MaxBrake >= 0 {
		return math.Inf(1)
	}
	return v * v / (2 * -p.MaxBrake)
}

// Velocity returns the velocity vector of the state.
func (s State) Velocity() geom.Vec2 {
	sin, cos := math.Sincos(s.Heading)
	return geom.V(s.Speed*cos, s.Speed*sin)
}

// String implements fmt.Stringer.
func (s State) String() string {
	return fmt.Sprintf("pos=%v θ=%.3f v=%.2f", s.Pos, s.Heading, s.Speed)
}
