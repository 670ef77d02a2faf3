package reach

import (
	"math"

	"repro/internal/geom"
	"repro/internal/vehicle"
)

// controlFan is a tube's control set prepared for integrateFan, which
// integrates every control of one frontier state in a single pass instead
// of one vehicle.Params.StepPath chain per control. Sharing is exact (each
// shared value is computed with the same operations on the same operands
// as the per-control path, see DESIGN.md §8):
//
//   - the sub-step count and dt depend only on the parent's speed;
//   - the speed schedule (v1, vMid) and the lateral-acceleration cap
//     depend only on the acceleration, so each group of controls with
//     bitwise-equal accelerations computes them once;
//   - a control whose steering tangent is the exact negation of another's
//     in its group (the boundary set's ±φ_max) has the exactly negated yaw
//     increment at every sub-step: the cap clamp is symmetric and IEEE
//     multiplication and division are sign-symmetric. SincosSmall is odd in
//     sin and even in cos bit for bit, so the pair shares one evaluation;
//   - a zero yaw increment (the straight control, or any control at a
//     standstill) has SincosSmall(±0) = (±0, 1) exactly, so it skips the
//     evaluation. The rotation arithmetic still runs literally, keeping
//     every signed zero.
//
// A controlFan also owns the kernel's working buffers, so integration
// allocates nothing per frontier state. It lives in a Scratch and is
// rebuilt only when the control set or sub-step bound changes.
type controlFan struct {
	key      fanKey
	controls []vehicle.Control
	tans     []float64  // tan of each control's steering angle
	groups   []fanGroup // controls grouped by acceleration bits
	ends     []vehicle.State
	paths    []pathState // stride SubSteps per control
	sched    []fanStep   // one group's schedule, one entry per sub-step
	inc      []fanInc    // one lane's yaw increments, one entry per sub-step
}

// fanKey is the part of a Config a controlFan is built from.
type fanKey struct {
	params   vehicle.Params
	samples  int
	boundary bool
	subSteps int
}

// fanGroup is the controls sharing one acceleration, paired into lanes.
type fanGroup struct {
	accel float64
	lanes []fanLane
}

// fanLane is one control, plus the control whose tangent is its exact
// negation when the group has one (mirror < 0 otherwise).
type fanLane struct {
	ctrl, mirror int
}

// fanStep is one sub-step of a group's speed schedule: the end speed, the
// midpoint speed and its ratio to the wheel base, and the steering-tangent
// cap at the sub-step's entry speed (+Inf when uncapped).
type fanStep struct {
	v1, vMid, k, lim float64
}

// fanInc is one sub-step of a lane's yaw: the yaw rate and the sincos of
// half its increment.
type fanInc struct {
	yawRate, sin, cos float64
}

// fan returns the scratch's control fan for cfg, rebuilding it only when
// the control set or the sub-step bound differs from the last call's.
func (s *Scratch) fan(cfg *Config) *controlFan {
	k := fanKey{cfg.Params, cfg.Samples, cfg.BoundaryOnly, cfg.SubSteps}
	f := &s.cfan
	if f.controls != nil && f.key == k {
		return f
	}
	*f = controlFan{
		key:      k,
		controls: cfg.controls(),
		sched:    make([]fanStep, cfg.SubSteps),
		inc:      make([]fanInc, cfg.SubSteps),
	}
	n := len(f.controls)
	f.tans = make([]float64, n)
	for i, u := range f.controls {
		f.tans[i] = math.Tan(u.Steer)
	}
	f.ends = make([]vehicle.State, n)
	f.paths = make([]pathState, n*cfg.SubSteps)
	paired := make([]bool, n)
	for i, u := range f.controls {
		if paired[i] {
			continue
		}
		var g *fanGroup
		for gi := range f.groups {
			if math.Float64bits(f.groups[gi].accel) == math.Float64bits(u.Accel) {
				g = &f.groups[gi]
				break
			}
		}
		if g == nil {
			f.groups = append(f.groups, fanGroup{accel: u.Accel})
			g = &f.groups[len(f.groups)-1]
		}
		lane := fanLane{ctrl: i, mirror: -1}
		neg := math.Float64bits(f.tans[i]) ^ (1 << 63)
		// Without a positive wheel base StepPath's yaw rate is +0 for every
		// control, which a mirror would flip to -0: pair nothing then.
		for j := i + 1; j < n && cfg.Params.WheelBase > 0; j++ {
			if !paired[j] && math.Float64bits(f.controls[j].Accel) == math.Float64bits(u.Accel) &&
				math.Float64bits(f.tans[j]) == neg {
				lane.mirror = j
				paired[j] = true
				break
			}
		}
		g.lanes = append(g.lanes, lane)
	}
	return f
}

// subSteps returns how many sub-steps integrate a slice from speed v:
// enough that none covers more than ~half a vehicle length, capped at
// SubSteps, so slow states stay cheap and fast states cannot tunnel
// between the footprint checks the sweep later runs over the recorded path.
func (c *Config) subSteps(v float64) int {
	sub := int(math.Ceil(v * c.SliceDt / (c.Params.Length / 2)))
	if sub < 1 {
		sub = 1
	}
	if sub > c.SubSteps {
		sub = c.SubSteps
	}
	return sub
}

// integrateFan advances state s one Δt slice under every control of f,
// writing control i's sub-step states to paths[i*SubSteps:] and its
// endpoint to f.ends[i], and returns the sub-step count all controls
// share. Every value is bitwise what one vehicle.Params.StepPath chain per
// control computes; TestIntegrateFanMatchesPerControl and FuzzIntegrateFan
// hold it to that.
//
// Each lane runs in two passes: its yaw increments and their sincos
// first, then the rotation and position chain of the lane's control (and
// of its mirror, with the increments negated). The chain makes no calls,
// so its running state stays in registers.
func (c *Config) integrateFan(f *controlFan, s vehicle.State, paths []pathState) int {
	p := &c.Params
	sub := c.subSteps(s.Speed)
	dt := c.SliceDt / float64(sub)
	stride := c.SubSteps
	sin0, cos0 := math.Sincos(s.Heading)
	sched, inc := f.sched[:sub], f.inc[:sub]
	for gi := range f.groups {
		g := &f.groups[gi]
		v0 := s.Speed
		for j := range sched {
			lim := math.Inf(1)
			if p.MaxLatAccel > 0 && v0 > 0 {
				lim = p.MaxLatAccel * p.WheelBase / (v0 * v0)
			}
			v1 := geom.Clamp(v0+g.accel*dt, 0, p.MaxSpeed)
			vMid := (v0 + v1) / 2
			sched[j] = fanStep{v1: v1, vMid: vMid, k: vMid / p.WheelBase, lim: lim}
			v0 = v1
		}
		for _, l := range g.lanes {
			tan := f.tans[l.ctrl]
			for j := range inc {
				yawRate := 0.0
				if p.WheelBase > 0 {
					yawRate = sched[j].k * clampTan(tan, sched[j].lim)
				}
				sh, ch := yawSincos(yawRate * dt / 2)
				inc[j] = fanInc{yawRate: yawRate, sin: sh, cos: ch}
			}
			f.ends[l.ctrl] = rollout(paths[l.ctrl*stride:l.ctrl*stride+sub], s, sin0, cos0, dt, sched, inc, false)
			if l.mirror >= 0 {
				f.ends[l.mirror] = rollout(paths[l.mirror*stride:l.mirror*stride+sub], s, sin0, cos0, dt, sched, inc, true)
			}
		}
	}
	return sub
}

// rollout runs one control's sub-step chain from s (with sincos(s.Heading)
// = sin0, cos0) over the group's speed schedule and the lane's yaw
// increments, negated for the lane's mirror, recording each sub-step into
// path and returning the endpoint. The arithmetic is StepPath's, operation
// for operation.
func rollout(path []pathState, s vehicle.State, sin0, cos0, dt float64, sched []fanStep, inc []fanInc, mirror bool) vehicle.State {
	x, y, h, sn, cs := s.Pos.X, s.Pos.Y, s.Heading, sin0, cos0
	sched, inc = sched[:len(path)], inc[:len(path)]
	for j := range path {
		yawRate, sh, ch := inc[j].yawRate, inc[j].sin, inc[j].cos
		if mirror {
			yawRate, sh = -yawRate, -sh
		}
		h = geom.NormalizeAngle(h + yawRate*dt)
		sinAvg := sn*ch + cs*sh
		cosAvg := cs*ch - sn*sh
		sn = sinAvg*ch + cosAvg*sh
		cs = cosAvg*ch - sinAvg*sh
		vMid := sched[j].vMid
		x += vMid * cosAvg * dt
		y += vMid * sinAvg * dt
		path[j].set(x, y, h, sched[j].v1, sn, cs)
	}
	return path[len(path)-1].st
}

// set stores one sub-step field by field: a composite-literal store is
// built in a stack temporary and block-copied, which stalls on store
// forwarding in this loop.
func (ps *pathState) set(x, y, heading, speed, sin, cos float64) {
	ps.st.Pos.X, ps.st.Pos.Y, ps.st.Heading, ps.st.Speed = x, y, heading, speed
	ps.sin, ps.cos = sin, cos
}

// clampTan applies the lateral-acceleration cap to a steering tangent, as
// vehicle.Params.StepPath does.
func clampTan(tan, lim float64) float64 {
	if tan > lim {
		return lim
	} else if tan < -lim {
		return -lim
	}
	return tan
}

// yawSincos is vehicle.SincosSmall with the zero increment answered
// directly: SincosSmall(±0) is exactly (±0, 1).
func yawSincos(x float64) (sin, cos float64) {
	if x == 0 {
		return x, 1
	}
	return vehicle.SincosSmall(x)
}
