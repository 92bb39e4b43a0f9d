package mobility

import (
	"math"
	"testing"

	"hybridcap/internal/rng"

	"hybridcap/internal/geom"
)

func newEta(t *testing.T, k Kernel) *EtaTable {
	t.Helper()
	et, err := NewEtaTable(k)
	if err != nil {
		t.Fatal(err)
	}
	return et
}

func TestEtaIntegratesToOne(t *testing.T) {
	for _, k := range []Kernel{UniformDisk{D: 1}, Cone{D: 1}, TruncGauss{Sigma: 0.3, D: 1}} {
		et := newEta(t, k)
		if got := et.Integral(); math.Abs(got-1) > 0.02 {
			t.Errorf("%s: eta integral = %v, want 1", k.Name(), got)
		}
	}
}

func TestEtaNonIncreasing(t *testing.T) {
	// For radially non-increasing kernels the autocorrelation eta is
	// also non-increasing in separation.
	et := newEta(t, UniformDisk{D: 1})
	prev := math.Inf(1)
	for x := 0.0; x <= 2.2; x += 0.01 {
		v := et.Eta(x)
		if v > prev+1e-9 {
			t.Errorf("eta increases at %v: %v > %v", x, v, prev)
		}
		prev = v
	}
}

func TestEtaVanishesBeyondTwiceSupport(t *testing.T) {
	et := newEta(t, UniformDisk{D: 0.7})
	if v := et.Eta(1.41); v != 0 {
		t.Errorf("eta(2D+) = %v, want 0", v)
	}
	if v := et.Eta(100); v != 0 {
		t.Errorf("eta(100) = %v, want 0", v)
	}
}

// MinUpTo is the least table node Eta interpolates between up to x:
// Eta over [0, x] never falls below it by more than rounding, and it is
// zero once x reaches the end of the table.
func TestEtaMinUpToBoundsEta(t *testing.T) {
	for _, k := range kernels() {
		et := newEta(t, k)
		d := k.Support()
		for _, x := range []float64{0, 0.3 * d, d, 1.7 * d, 1.99 * d} {
			floor := et.MinUpTo(x)
			for i := 0; i <= 4000; i++ {
				x0 := x * float64(i) / 4000
				if v := et.Eta(x0); v < floor*(1-1e-12) {
					t.Fatalf("%s: Eta(%v) = %v below MinUpTo(%v) = %v", k.Name(), x0, v, x, floor)
				}
			}
		}
		for _, x := range []float64{2 * d, 3 * d, math.Inf(1), math.NaN()} {
			if v := et.MinUpTo(x); v != 0 {
				t.Errorf("%s: MinUpTo(%v) = %v, want 0", k.Name(), x, v)
			}
		}
	}
}

func TestEtaSymmetricInput(t *testing.T) {
	et := newEta(t, Cone{D: 1})
	if et.Eta(-0.5) != et.Eta(0.5) {
		t.Error("eta should treat negative separations as distances")
	}
}

// The uniform-disk eta at 0 is the disk overlap normalization:
// eta(0) = 1/(pi D^2).
func TestEtaAtZeroUniform(t *testing.T) {
	d := 1.0
	et := newEta(t, UniformDisk{D: d})
	want := 1 / (math.Pi * d * d)
	if got := et.Eta(0); math.Abs(got-want) > 0.02*want {
		t.Errorf("eta(0) = %v, want %v", got, want)
	}
}

// eta(x0) for uniform disks is the lens-overlap area formula divided by
// (pi D^2)^2; verify one interior point against the closed form.
func TestEtaLensOverlapUniform(t *testing.T) {
	d := 1.0
	et := newEta(t, UniformDisk{D: d})
	x := 0.8
	// Area of intersection of two unit disks at center distance x.
	lens := 2*d*d*math.Acos(x/(2*d)) - x/2*math.Sqrt(4*d*d-x*x)
	want := lens / (math.Pi * d * d * math.Pi * d * d)
	if got := et.Eta(x); math.Abs(got-want) > 0.03*want {
		t.Errorf("eta(%v) = %v, want %v", x, got, want)
	}
}

// Monte-Carlo cross-check: eta(f*d)*f^2 approximates the meeting density
// of two independent stationary nodes with home-points d apart.
func TestEtaMatchesMonteCarloMeetingProbability(t *testing.T) {
	k := UniformDisk{D: 1}
	et := newEta(t, k)
	s := et.Sampler()
	f := 4.0
	dHome := 0.3 // home distance; f*dHome = 1.2 < 2D
	rt := 0.05   // small range
	h1 := geom.Point{X: 0.2, Y: 0.5}
	h2 := geom.Add(h1, dHome, 0)
	r := rng.New(9).Rand()
	const trials = 400000
	hits := 0
	for i := 0; i < trials; i++ {
		p1 := SamplePointNear(h1, s, f, r)
		p2 := SamplePointNear(h2, s, f, r)
		if geom.Dist(p1, p2) <= rt {
			hits++
		}
	}
	got := float64(hits) / trials
	want := math.Pi * rt * rt * f * f * et.Eta(f*dHome)
	if want <= 0 {
		t.Fatalf("analytic meeting probability is zero")
	}
	rel := math.Abs(got-want) / want
	if rel > 0.1 {
		t.Errorf("meeting probability MC = %v, analytic = %v (rel err %v)", got, want, rel)
	}
}
