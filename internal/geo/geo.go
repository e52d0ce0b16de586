// Package geo provides the 2-D geometry primitives used throughout the
// mobile-grid simulation: points, vectors, headings, segments and rectangles.
//
// Coordinates are metres in a local, flat campus frame (x east, y north).
// Headings are radians in [0, 2π), measured counter-clockwise from the
// positive x axis, matching math.Atan2 conventions after normalisation.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the campus frame, in metres.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Add translates p by the vector v.
func (p Point) Add(v Vec) Point {
	return Point{X: p.X + v.DX, Y: p.Y + v.DY}
}

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec {
	return Vec{DX: p.X - q.X, DY: p.Y - q.Y}
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root for hot paths such as per-tick filter checks.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
// t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{
		X: p.X + (q.X-p.X)*t,
		Y: p.Y + (q.Y-p.Y)*t,
	}
}

// Vec is a displacement in metres.
type Vec struct {
	DX, DY float64
}

// Add returns the component-wise sum of v and w.
func (v Vec) Add(w Vec) Vec {
	return Vec{DX: v.DX + w.DX, DY: v.DY + w.DY}
}

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec {
	return Vec{DX: v.DX * k, DY: v.DY * k}
}

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 {
	return math.Hypot(v.DX, v.DY)
}

// Heading returns the direction of v as a normalised angle in [0, 2π).
// The heading of the zero vector is 0 by convention.
func (v Vec) Heading() float64 {
	if v.DX == 0 && v.DY == 0 {
		return 0
	}
	return NormalizeAngle(math.Atan2(v.DY, v.DX))
}

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 {
	return v.DX*w.DX + v.DY*w.DY
}

// Unit returns the unit vector in the direction of v. The unit of the zero
// vector is the zero vector.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return Vec{DX: v.DX / l, DY: v.DY / l}
}

// FromHeading builds the unit displacement for a heading angle scaled by
// length. It is the inverse of Vec.Heading for non-zero lengths.
func FromHeading(heading, length float64) Vec {
	sin, cos := math.Sincos(heading)
	return Vec{DX: cos * length, DY: sin * length}
}

// NormalizeAngle maps an arbitrary angle in radians to [0, 2π).
//
// Inside (-2π, 2π) math.Mod(a, 2π) is exact and returns a itself, so the
// call is skipped there: the result is bit for bit the Mod-based one, and
// the tick path's headings (atan2 outputs, most bounced headings) do not
// pay for the division loop. NaN, ±Inf and large inputs still go through
// Mod.
func NormalizeAngle(a float64) float64 {
	if !(a > -2*math.Pi && a < 2*math.Pi) {
		a = math.Mod(a, 2*math.Pi)
	}
	if a < 0 {
		a += 2 * math.Pi
	}
	// math.Mod can produce 2π for inputs like -1e-20 after the correction;
	// fold exactly onto 0 so callers can rely on the half-open interval.
	if a >= 2*math.Pi {
		a = 0
	}
	return a
}

// AngleDiff returns the smallest absolute difference between two angles, in
// [0, π].
func AngleDiff(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Len returns the segment length.
func (s Segment) Len() float64 {
	return s.A.Dist(s.B)
}

// Heading returns the direction from A to B.
func (s Segment) Heading() float64 {
	return s.B.Sub(s.A).Heading()
}

// At returns the point a fraction t along the segment; t=0 is A, t=1 is B.
func (s Segment) At(t float64) Point {
	return s.A.Lerp(s.B, t)
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	ab := s.B.Sub(s.A)
	den := ab.Dot(ab)
	if den == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(ab) / den
	t = Clamp(t, 0, 1)
	return s.At(t)
}

// Dist returns the distance from p to the segment.
func (s Segment) Dist(p Point) float64 {
	return p.Dist(s.ClosestPoint(p))
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a well-formed Rect has Min.X <= Max.X and Min.Y <= Max.Y.
type Rect struct {
	Min, Max Point
}

// NewRect builds a well-formed rectangle from any two opposite corners.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside the rectangle (inclusive bounds).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the rectangle's centre point.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Width returns the extent along x.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent along y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Diagonal returns the corner-to-corner length, the largest displacement the
// rectangle can contain.
func (r Rect) Diagonal() float64 { return r.Min.Dist(r.Max) }

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{X: math.Min(r.Min.X, s.Min.X), Y: math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{X: math.Max(r.Max.X, s.Max.X), Y: math.Max(r.Max.Y, s.Max.Y)},
	}
}

// ClampPoint returns the point inside the rectangle closest to p.
func (r Rect) ClampPoint(p Point) Point {
	return Point{
		X: Clamp(p.X, r.Min.X, r.Max.X),
		Y: Clamp(p.Y, r.Min.Y, r.Max.Y),
	}
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
