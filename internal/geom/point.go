// Package geom provides geometry on the unit torus O = [0,1)^2 with
// wrap-around distances, square and hexagonal tessellations, and simple
// regions used as graph cuts.
//
// The paper (Definition 1) normalizes the network extension to a unit
// torus; all distances in this module are torus distances, i.e. the
// Euclidean distance between the closest pair of images under wrapping.
package geom

import "math"

// Point is a location on the unit torus. Coordinates are kept in [0,1).
type Point struct {
	X, Y float64
}

// Wrap maps a scalar coordinate into [0,1).
func Wrap(x float64) float64 {
	x -= math.Floor(x)
	// math.Floor guarantees x in [0,1) except for the pathological case
	// where rounding yields exactly 1.0 (e.g. x = -1e-18).
	if x >= 1 {
		x = 0
	}
	return x
}

// Pt constructs a wrapped point from arbitrary coordinates.
func Pt(x, y float64) Point {
	return Point{X: Wrap(x), Y: Wrap(y)}
}

// Wrapped returns the point with both coordinates wrapped into [0,1).
func (p Point) Wrapped() Point {
	return Point{X: Wrap(p.X), Y: Wrap(p.Y)}
}

// Delta returns the signed minimal displacement from a to b on the unit
// circle, a value in [-1/2, 1/2).
func Delta(a, b float64) float64 {
	d := b - a
	d -= math.Round(d)
	if d < -0.5 {
		d = 0.5
	}
	return d
}

// DeltaUnit is Delta specialized to raw differences b-a in (-1,1],
// where the round-to-nearest reduces to two comparisons. That covers
// coordinates honoring the [0,1) Point invariant, and also a cell's
// upper edge at exactly 1 against a coordinate in [0,1), which
// spatial's axisRange passes. It returns exactly Delta's value
// (including at the half-way ties ±0.5, which round away from zero,
// and at a difference of 1, which maps to 0) without the math.Round
// call that dominates Delta in brute-force nearest scans.
func DeltaUnit(a, b float64) float64 {
	d := b - a
	if d >= 0.5 {
		return d - 1
	}
	if d <= -0.5 {
		return d + 1
	}
	return d
}

// Dist2Unit is the squared torus distance for points honoring the
// [0,1) coordinate invariant, bit-identical to Dist2 on such points.
// Each raw difference lies strictly inside (-1,1), so doubling it is
// exact and truncating the double to an integer gives the -1, 0 or +1
// that DeltaUnit's two comparisons pick, without a branch.
func Dist2Unit(a, b Point) float64 {
	dx := b.X - a.X
	dx -= float64(int64(dx * 2))
	dy := b.Y - a.Y
	dy -= float64(int64(dy * 2))
	return dx*dx + dy*dy
}

// Sub returns the minimal displacement vector from q to p on the torus.
// Each component lies in [-1/2, 1/2).
func Sub(p, q Point) (dx, dy float64) {
	return Delta(q.X, p.X), Delta(q.Y, p.Y)
}

// Add translates p by (dx, dy) and wraps the result back onto the torus.
func Add(p Point, dx, dy float64) Point {
	return Pt(p.X+dx, p.Y+dy)
}

// Dist2 returns the squared torus distance between a and b.
func Dist2(a, b Point) float64 {
	dx := Delta(a.X, b.X)
	dy := Delta(a.Y, b.Y)
	return dx*dx + dy*dy
}

// Dist returns the torus distance between a and b. The maximum possible
// value is sqrt(2)/2.
func Dist(a, b Point) float64 {
	return math.Sqrt(Dist2(a, b))
}

// MaxDist is the largest possible torus distance between two points,
// the torus diameter: Dist2 never exceeds 1/2, whose square root
// rounds to this value, so Dist never exceeds it either.
const MaxDist = math.Sqrt2 / 2

// Lerp moves from a toward b along the shortest torus path by fraction t
// (t=0 yields a, t=1 yields b).
func Lerp(a, b Point, t float64) Point {
	dx, dy := Sub(b, a)
	return Add(a, t*dx, t*dy)
}
