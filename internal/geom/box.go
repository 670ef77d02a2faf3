package geom

import "math"

// Box is an oriented rectangle (OBB): the footprint of a vehicle or other
// physical object. Heading is the direction of the +length axis in radians.
type Box struct {
	Center  Vec2
	HalfLen float64 // half extent along the heading axis
	HalfWid float64 // half extent perpendicular to the heading axis
	Heading float64
}

// NewBox constructs an oriented box from a centre, full length, full width
// and heading.
func NewBox(center Vec2, length, width, heading float64) Box {
	return Box{Center: center, HalfLen: length / 2, HalfWid: width / 2, Heading: heading}
}

// Axes returns the box's local unit axes (longitudinal, lateral).
func (b Box) Axes() (Vec2, Vec2) {
	s, c := math.Sincos(b.Heading)
	return Vec2{c, s}, Vec2{-s, c}
}

// Corners returns the four corners in counter-clockwise order.
func (b Box) Corners() [4]Vec2 {
	ax, ay := b.Axes()
	dl := ax.Scale(b.HalfLen)
	dw := ay.Scale(b.HalfWid)
	return [4]Vec2{
		b.Center.Add(dl).Add(dw),
		b.Center.Sub(dl).Add(dw),
		b.Center.Sub(dl).Sub(dw),
		b.Center.Add(dl).Sub(dw),
	}
}

// ContainsPoint reports whether p lies inside (or on the boundary of) b.
func (b Box) ContainsPoint(p Vec2) bool {
	d := p.Sub(b.Center)
	ax, ay := b.Axes()
	return math.Abs(d.Dot(ax)) <= b.HalfLen+1e-12 && math.Abs(d.Dot(ay)) <= b.HalfWid+1e-12
}

// Area returns the area of the box.
func (b Box) Area() float64 { return 4 * b.HalfLen * b.HalfWid }

// BoundingRadius returns the radius of the circumscribed circle, useful for
// cheap broad-phase rejection before the exact SAT test.
func (b Box) BoundingRadius() float64 { return math.Hypot(b.HalfLen, b.HalfWid) }

// Intersects reports whether two oriented boxes overlap, using the
// separating-axis theorem specialised for rectangles (4 candidate axes).
func (b Box) Intersects(o Box) bool {
	// Broad phase: bounding circles.
	r := b.BoundingRadius() + o.BoundingRadius()
	if b.Center.DistSq(o.Center) > r*r {
		return false
	}
	bx, by := b.Axes()
	ox, oy := o.Axes()
	axes := [4]Vec2{bx, by, ox, oy}
	d := o.Center.Sub(b.Center)
	for _, axis := range axes {
		// Projected half-extents of each box onto axis.
		pb := b.HalfLen*math.Abs(bx.Dot(axis)) + b.HalfWid*math.Abs(by.Dot(axis))
		po := o.HalfLen*math.Abs(ox.Dot(axis)) + o.HalfWid*math.Abs(oy.Dot(axis))
		if math.Abs(d.Dot(axis)) > pb+po {
			return false
		}
	}
	return true
}

// Inflate returns a copy of b grown by margin on every side. A negative
// margin shrinks the box (extents are floored at zero).
func (b Box) Inflate(margin float64) Box {
	b.HalfLen = math.Max(0, b.HalfLen+margin)
	b.HalfWid = math.Max(0, b.HalfWid+margin)
	return b
}

// PreparedBox caches the derived geometry of a Box — unit axes, bounding
// radius and AABB — so repeated intersection and drivability tests against
// the same box skip the per-call trigonometry. The reach-tube hot path
// prepares every obstacle footprint once per evaluation and every ego
// footprint once per sub-step instead of once per pairwise test. Corners
// are not cached: the SAT intersection test never touches them, and the one
// consumer that needs them (ring-road drivability) derives them from the
// cached axes.
type PreparedBox struct {
	Box      Box
	Ax, Ay   Vec2    // unit axes (longitudinal, lateral)
	Radius   float64 // bounding-circle radius
	Min, Max Vec2    // AABB corners
}

// Prepare computes the cached geometry of b: the values Box.Axes,
// Box.BoundingRadius, Box.Corners and Box.AABB would return (AABB up to the
// sign of zero, which no comparison distinguishes), so tests routed through
// a PreparedBox decide identically.
func (b Box) Prepare() PreparedBox {
	var p PreparedBox
	b.PrepareInto(&p)
	return p
}

// PrepareInto is Prepare writing into caller-owned memory, so hot loops
// (one ego footprint per reach-tube sub-step) reuse a single PreparedBox
// instead of copying the ~15-word struct out of every call.
func (b Box) PrepareInto(p *PreparedBox) {
	s, c := math.Sincos(b.Heading)
	b.PrepareIntoAxes(p, s, c)
}

// PrepareIntoAxes is PrepareInto with sin(b.Heading) and cos(b.Heading)
// supplied by the caller — for hot loops that already track the heading's
// sine and cosine incrementally (see reach's integrateFan) and can skip
// the per-footprint Sincos.
func (b Box) PrepareIntoAxes(p *PreparedBox, sin, cos float64) {
	p.Box = b
	p.Radius = math.Hypot(b.HalfLen, b.HalfWid)
	p.moveTo(b.Center, sin, cos)
}

// MoveTo repositions a prepared box to a new centre and heading, reusing
// the prepared half-extents and bounding radius (which depend only on the
// footprint dimensions). sin, cos must equal sincos(heading). The result
// matches re-preparing the moved box, with the AABB computed in closed form
// from the axis extents instead of a corner scan — equal to within 1 ulp,
// and still a valid bounding box for every intersection or drivability
// decision. The reach-tube sweep uses this to prepare one ego footprint per
// sub-step with no per-step trigonometry at all.
func (p *PreparedBox) MoveTo(center Vec2, heading, sin, cos float64) {
	p.Box.Center, p.Box.Heading = center, heading
	p.Ax, p.Ay = Vec2{cos, sin}, Vec2{-sin, cos}
	ex := math.Abs(cos*p.Box.HalfLen) + math.Abs(sin*p.Box.HalfWid)
	ey := math.Abs(sin*p.Box.HalfLen) + math.Abs(cos*p.Box.HalfWid)
	p.Min = Vec2{center.X - ex, center.Y - ey}
	p.Max = Vec2{center.X + ex, center.Y + ey}
}

func (p *PreparedBox) moveTo(center Vec2, sin, cos float64) {
	p.Ax, p.Ay = Vec2{cos, sin}, Vec2{-sin, cos}
	dl := p.Ax.Scale(p.Box.HalfLen)
	dw := p.Ay.Scale(p.Box.HalfWid)
	corners := [4]Vec2{
		center.Add(dl).Add(dw),
		center.Sub(dl).Add(dw),
		center.Sub(dl).Sub(dw),
		center.Add(dl).Sub(dw),
	}
	p.Min, p.Max = corners[0], corners[0]
	for _, c := range corners[1:] {
		if c.X < p.Min.X {
			p.Min.X = c.X
		}
		if c.Y < p.Min.Y {
			p.Min.Y = c.Y
		}
		if c.X > p.Max.X {
			p.Max.X = c.X
		}
		if c.Y > p.Max.Y {
			p.Max.Y = c.Y
		}
	}
}

// CornersInto writes the box's counter-clockwise corners, derived from the
// cached axes, into out. They equal Box.Corners() without the trigonometry.
func (p *PreparedBox) CornersInto(out *[4]Vec2) {
	dl := p.Ax.Scale(p.Box.HalfLen)
	dw := p.Ay.Scale(p.Box.HalfWid)
	out[0] = p.Box.Center.Add(dl).Add(dw)
	out[1] = p.Box.Center.Sub(dl).Add(dw)
	out[2] = p.Box.Center.Sub(dl).Sub(dw)
	out[3] = p.Box.Center.Add(dl).Sub(dw)
}

// Intersects reports whether the two prepared boxes overlap. It agrees with
// Box.Intersects on every input: the extra AABB rejection is conservative
// (disjoint AABBs imply disjoint boxes) and the circle and SAT phases use
// the cached values of the exact quantities Box.Intersects recomputes.
func (b *PreparedBox) Intersects(o *PreparedBox) bool {
	if b.Min.X > o.Max.X || o.Min.X > b.Max.X || b.Min.Y > o.Max.Y || o.Min.Y > b.Max.Y {
		return false
	}
	r := b.Radius + o.Radius
	if b.Box.Center.DistSq(o.Box.Center) > r*r {
		return false
	}
	bx, by := b.Ax, b.Ay
	ox, oy := o.Ax, o.Ay
	axes := [4]Vec2{bx, by, ox, oy}
	d := o.Box.Center.Sub(b.Box.Center)
	for _, axis := range axes {
		pb := b.Box.HalfLen*math.Abs(bx.Dot(axis)) + b.Box.HalfWid*math.Abs(by.Dot(axis))
		po := o.Box.HalfLen*math.Abs(ox.Dot(axis)) + o.Box.HalfWid*math.Abs(oy.Dot(axis))
		if math.Abs(d.Dot(axis)) > pb+po {
			return false
		}
	}
	return true
}

// AABB returns the axis-aligned bounding box of b as (min, max) corners.
func (b Box) AABB() (Vec2, Vec2) {
	cs := b.Corners()
	min, max := cs[0], cs[0]
	for _, c := range cs[1:] {
		min.X = math.Min(min.X, c.X)
		min.Y = math.Min(min.Y, c.Y)
		max.X = math.Max(max.X, c.X)
		max.Y = math.Max(max.Y, c.Y)
	}
	return min, max
}
