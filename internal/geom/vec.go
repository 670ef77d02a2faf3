// Package geom provides the 2-D geometric primitives used throughout the
// iPrism reproduction: vectors, poses, oriented bounding boxes with
// separating-axis overlap tests, polygons, and occupancy grids for
// reach-tube volume estimation.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement in the 2-D plane. Units are metres.
type Vec2 struct {
	X, Y float64
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v · w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the scalar cross product (z-component of v × w).
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// NormSq returns the squared Euclidean length of v.
func (v Vec2) NormSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// DistSq returns the squared Euclidean distance between v and w.
func (v Vec2) DistSq(w Vec2) float64 { return v.Sub(w).NormSq() }

// Unit returns the unit vector in the direction of v, or the zero vector if
// v has (near-)zero length.
func (v Vec2) Unit() Vec2 {
	n := v.Norm()
	if n < 1e-12 {
		return Vec2{}
	}
	return v.Scale(1 / n)
}

// Rotate returns v rotated counter-clockwise by angle radians.
func (v Vec2) Rotate(angle float64) Vec2 {
	s, c := math.Sincos(angle)
	return Vec2{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

// Angle returns the direction of v in radians in (-π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// NormalizeAngle wraps an angle into (-π, π]. An angle already in range
// is returned as is, by a check small enough to inline into the hot
// integration loops; anything else takes the wrapping path.
func NormalizeAngle(a float64) float64 {
	if a > -math.Pi && a <= math.Pi {
		return a
	}
	return wrapAngle(a)
}

func wrapAngle(a float64) float64 {
	// Mod leaves |a| < 2π unchanged, so an angle within one turn skips it
	// entirely without changing the result.
	if a <= -2*math.Pi || a >= 2*math.Pi {
		a = math.Mod(a, 2*math.Pi)
	}
	switch {
	case a > math.Pi:
		a -= 2 * math.Pi
	case a <= -math.Pi:
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the signed smallest difference a-b wrapped into (-π, π].
func AngleDiff(a, b float64) float64 { return NormalizeAngle(a - b) }

// Clamp restricts x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
