package geom

import (
	"math"
	"math/rand"
	"testing"
)

// checkUnitCircle fails unless UnitCircle(u) has math.Sincos's bits.
func checkUnitCircle(t *testing.T, u float64) {
	t.Helper()
	s, c := UnitCircle(u)
	ws, wc := math.Sincos(u * 2 * math.Pi)
	if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
		t.Fatalf("UnitCircle(%v) = (%v, %v), math.Sincos gives (%v, %v)", u, s, c, ws, wc)
	}
}

// octant is math.Sincos's octant of the angle u*2*Pi before rounding
// up to even: it changes value at the reduction's own boundaries.
func octant(u float64) uint64 { return uint64(u * 2 * math.Pi * (4 / math.Pi)) }

func TestUnitCircleMatchesSincos(t *testing.T) {
	edges := []float64{0, math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 0x1p-1022}
	for k := 1; k < 8; k++ {
		// u = k/8 is the angle k*Pi/4. The reduction's boundary is
		// where the octant, as computed, turns from k-1 to k: the
		// least u whose octant is k, found by bisection on the bits.
		lo, hi := math.Float64bits(float64(k-1)/8), math.Float64bits(float64(k+1)/8)
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if octant(math.Float64frombits(mid)) >= uint64(k) {
				hi = mid
			} else {
				lo = mid
			}
		}
		edges = append(edges, float64(k)/8, math.Float64frombits(hi))
	}
	for _, e := range edges {
		for d := -3; d <= 3; d++ {
			b := int64(math.Float64bits(e)) + int64(d)
			if u := math.Float64frombits(uint64(b)); b >= 0 && u < 1 {
				checkUnitCircle(t, u)
			}
		}
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		checkUnitCircle(t, rnd.Float64())
	}
}
