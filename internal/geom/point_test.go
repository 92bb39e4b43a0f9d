package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestWrap(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, 0},
		{0.25, 0.25},
		{1, 0},
		{1.75, 0.75},
		{-0.25, 0.75},
		{-3.5, 0.5},
		{2, 0},
	}
	for _, c := range cases {
		if got := Wrap(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		w := Wrap(x)
		return w >= 0 && w < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaRange(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		d := Delta(Wrap(a), Wrap(b))
		return d >= -0.5 && d < 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaConsistentWithAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := rng.Float64()
		b := rng.Float64()
		d := Delta(a, b)
		if got := Wrap(a + d); !almostEqual(got, b, 1e-9) {
			t.Fatalf("Wrap(%v + Delta(%v,%v)=%v) = %v, want %v", a, a, b, d, got, b)
		}
	}
}

func TestDistBasic(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{0.3, 0}, 0.3},
		{Point{0, 0}, Point{0.9, 0}, 0.1},                   // wraps
		{Point{0.1, 0.1}, Point{0.9, 0.9}, math.Sqrt(0.08)}, // wraps both axes
		{Point{0, 0}, Point{0.5, 0.5}, math.Sqrt2 / 2},      // antipode
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Pt(ax, ay)
		b := Pt(bx, by)
		return almostEqual(Dist(a, b), Dist(b, a), 1e-12)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := Point{rng.Float64(), rng.Float64()}
		b := Point{rng.Float64(), rng.Float64()}
		c := Point{rng.Float64(), rng.Float64()}
		if Dist(a, c) > Dist(a, b)+Dist(b, c)+1e-12 {
			t.Fatalf("triangle inequality violated: d(%v,%v)=%v > %v + %v",
				a, c, Dist(a, c), Dist(a, b), Dist(b, c))
		}
	}
}

func TestDistBounded(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		d := Dist(Pt(ax, ay), Pt(bx, by))
		return d >= 0 && d <= MaxDist+1e-12
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDistTranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a := Point{rng.Float64(), rng.Float64()}
		b := Point{rng.Float64(), rng.Float64()}
		dx := rng.Float64()*4 - 2
		dy := rng.Float64()*4 - 2
		d0 := Dist(a, b)
		d1 := Dist(Add(a, dx, dy), Add(b, dx, dy))
		if !almostEqual(d0, d1, 1e-9) {
			t.Fatalf("translation changed distance: %v vs %v", d0, d1)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		a := Point{rng.Float64(), rng.Float64()}
		b := Point{rng.Float64(), rng.Float64()}
		dx, dy := Sub(b, a)
		got := Add(a, dx, dy)
		if Dist(got, b) > 1e-9 {
			t.Fatalf("Add(a, Sub(b,a)) = %v, want %v", got, b)
		}
	}
}

func TestLerp(t *testing.T) {
	a := Point{0.9, 0.5}
	b := Point{0.1, 0.5} // shortest path wraps through x=0
	mid := Lerp(a, b, 0.5)
	if !almostEqual(mid.X, 0.0, 1e-12) || !almostEqual(mid.Y, 0.5, 1e-12) {
		t.Errorf("Lerp midpoint = %v, want (0, 0.5)", mid)
	}
	if got := Lerp(a, b, 0); Dist(got, a) > 1e-12 {
		t.Errorf("Lerp t=0 = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); Dist(got, b) > 1e-12 {
		t.Errorf("Lerp t=1 = %v, want %v", got, b)
	}
}

func TestPtWraps(t *testing.T) {
	p := Pt(1.25, -0.25)
	if !almostEqual(p.X, 0.25, 1e-12) || !almostEqual(p.Y, 0.75, 1e-12) {
		t.Errorf("Pt(1.25,-0.25) = %v, want (0.25, 0.75)", p)
	}
}

// DeltaUnit promises bit-identity with Delta on coordinates honoring
// the [0,1) Point invariant — the contract that lets the hot brute-force
// scans in spatial and sim swap one for the other without perturbing a
// single report byte.
func TestDeltaUnitMatchesDelta(t *testing.T) {
	check := func(a, b float64) {
		want := Delta(a, b)
		got := DeltaUnit(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DeltaUnit(%v, %v) = %v (bits %x), Delta = %v (bits %x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Exact half-way ties: Delta rounds ±0.5 away from zero and then
	// clamps; DeltaUnit must land on the same representative.
	ties := [][2]float64{
		{0, 0.5}, {0.5, 0}, {0.25, 0.75}, {0.75, 0.25},
		{0.1, 0.6}, {0.6, 0.1},
	}
	for _, c := range ties {
		check(c[0], c[1])
	}
	// Degenerate and boundary pairs.
	for _, c := range [][2]float64{{0, 0}, {0, math.Nextafter(1, 0)}, {math.Nextafter(1, 0), 0}, {0.5, 0.5}} {
		check(c[0], c[1])
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		check(rng.Float64(), rng.Float64())
	}
}

// DeltaUnit's domain is a raw difference in (-1,1]: spatial's
// axisRange passes a cell's upper edge a+w, which reaches exactly 1, so
// b = 1 against any a in [0,1) must still land on Delta's value.
func TestDeltaUnitAtUpperEdge(t *testing.T) {
	as := []float64{0, math.Copysign(0, -1), 5e-324, 0.25, 0.5, math.Nextafter(0.5, 1), 0.75, math.Nextafter(1, 0)}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1000; i++ {
		as = append(as, rng.Float64())
	}
	for _, a := range as {
		want, got := Delta(a, 1), DeltaUnit(a, 1)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DeltaUnit(%v, 1) = %v (bits %x), Delta = %v (bits %x)",
				a, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// dist2TwoBranch is Dist2Unit in its two-comparison form, through
// DeltaUnit.
func dist2TwoBranch(a, b Point) float64 {
	dx := DeltaUnit(a.X, b.X)
	dy := DeltaUnit(a.Y, b.Y)
	return dx*dx + dy*dy
}

// checkDist2Unit fails t unless Dist2Unit(a, b) has the bits of both
// the two-branch form and Dist2.
func checkDist2Unit(t testing.TB, a, b Point) {
	t.Helper()
	got := Dist2Unit(a, b)
	for _, want := range []struct {
		name string
		v    float64
	}{{"two-branch", dist2TwoBranch(a, b)}, {"Dist2", Dist2(a, b)}} {
		if math.Float64bits(got) != math.Float64bits(want.v) {
			t.Fatalf("Dist2Unit(%v, %v) = %v (bits %x), %s = %v (bits %x)",
				a, b, got, math.Float64bits(got), want.name, want.v, math.Float64bits(want.v))
		}
	}
}

// Dist2Unit's branch-free reduction must equal the two-branch form and
// Dist2 bit for bit on every pair honoring the [0,1) invariant: at the
// zeros, the largest coordinate below 1, the half-way ties, subnormals,
// and 10^6 random pairs.
func TestDist2UnitMatchesDist2(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), math.Nextafter(1, 0),
		0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0.25, 0.75, 0.1, 0.6,
		5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
	}
	for _, ax := range edges {
		for _, ay := range edges {
			for _, bx := range edges {
				for _, by := range edges {
					checkDist2Unit(t, Point{ax, ay}, Point{bx, by})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000000; i++ {
		a := Point{rng.Float64(), rng.Float64()}
		b := Point{rng.Float64(), rng.Float64()}
		checkDist2Unit(t, a, b)
	}
}
