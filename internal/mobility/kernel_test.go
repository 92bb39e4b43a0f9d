package mobility

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hybridcap/internal/rng"
)

func kernels() []Kernel {
	return []Kernel{
		UniformDisk{D: 1},
		UniformDisk{D: 0.5},
		Cone{D: 1},
		TruncGauss{Sigma: 0.3, D: 1},
		PowerLaw{D0: 0.1, Beta: 2, D: 1},
	}
}

func TestKernelsNonIncreasing(t *testing.T) {
	for _, k := range kernels() {
		prev := math.Inf(1)
		for d := 0.0; d <= k.Support()*1.1; d += k.Support() / 200 {
			v := k.Density(d)
			if v < 0 {
				t.Errorf("%s: negative density at %v", k.Name(), d)
			}
			if v > prev+1e-12 {
				t.Errorf("%s: density increases at %v: %v > %v", k.Name(), d, v, prev)
			}
			prev = v
		}
	}
}

// Density must be exactly zero past the support, from the first float
// above it on: scheme B's access sums leave out every BS past the
// reach on that promise.
func TestKernelsFiniteSupport(t *testing.T) {
	for _, k := range kernels() {
		for _, d := range []float64{math.Nextafter(k.Support(), math.Inf(1)), k.Support() * 1.001} {
			if v := k.Density(d); v != 0 {
				t.Errorf("%s: density(%v) = %v beyond support, want 0", k.Name(), d, v)
			}
		}
		if k.Density(0) <= 0 {
			t.Errorf("%s: density at origin should be positive", k.Name())
		}
	}
}

func TestSamplerMass(t *testing.T) {
	// Analytic masses: uniform disk pi*D^2, cone pi*D^2/3.
	cases := []struct {
		k    Kernel
		want float64
	}{
		{UniformDisk{D: 1}, math.Pi},
		{UniformDisk{D: 0.5}, math.Pi * 0.25},
		{Cone{D: 1}, math.Pi / 3},
	}
	for _, c := range cases {
		s := mustSampler(t, c.k)
		if math.Abs(s.Mass()-c.want) > 1e-3*c.want {
			t.Errorf("%s: mass = %v, want %v", c.k.Name(), s.Mass(), c.want)
		}
	}
}

func TestSampleWithinSupport(t *testing.T) {
	r := rng.New(1).Rand()
	for _, k := range kernels() {
		s := mustSampler(t, k)
		for i := 0; i < 1000; i++ {
			dx, dy := s.Sample(r)
			if d := math.Hypot(dx, dy); d > k.Support()+1e-9 {
				t.Errorf("%s: sample at distance %v beyond support %v", k.Name(), d, k.Support())
			}
		}
	}
}

// The empirical radial CDF of samples must match the analytic CDF for
// the uniform disk (P(rho <= x) = (x/D)^2).
func TestSampleRadialDistributionUniform(t *testing.T) {
	s := mustSampler(t, UniformDisk{D: 1})
	r := rng.New(2).Rand()
	const n = 50000
	count := 0
	for i := 0; i < n; i++ {
		if s.SampleRadius(r) <= 0.5 {
			count++
		}
	}
	got := float64(count) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("P(rho <= 0.5) = %v, want 0.25", got)
	}
}

// For the cone kernel the radial CDF is integral of (1-t)t dt
// normalized: F(x) = (3x^2 - 2x^3).
func TestSampleRadialDistributionCone(t *testing.T) {
	s := mustSampler(t, Cone{D: 1})
	r := rng.New(3).Rand()
	const n = 50000
	for _, x := range []float64{0.25, 0.5, 0.75} {
		count := 0
		r2 := rand.New(rand.NewSource(int64(x * 1000)))
		_ = r2
		for i := 0; i < n; i++ {
			if s.SampleRadius(r) <= x {
				count++
			}
		}
		want := 3*x*x - 2*x*x*x
		got := float64(count) / n
		if math.Abs(got-want) > 0.015 {
			t.Errorf("cone: F(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestSampleIsotropic(t *testing.T) {
	s := mustSampler(t, UniformDisk{D: 1})
	r := rng.New(4).Rand()
	var sx, sy float64
	const n = 20000
	for i := 0; i < n; i++ {
		dx, dy := s.Sample(r)
		sx += dx
		sy += dy
	}
	if math.Abs(sx/n) > 0.02 || math.Abs(sy/n) > 0.02 {
		t.Errorf("mean displacement (%v, %v) not near zero", sx/n, sy/n)
	}
}

func TestNormDensityIntegratesToOne(t *testing.T) {
	for _, k := range kernels() {
		s := mustSampler(t, k)
		// 2*pi*integral of normdensity(rho)*rho drho over [0, D].
		const bins = 4000
		h := k.Support() / bins
		sum := 0.0
		for i := 0; i < bins; i++ {
			rho := (float64(i) + 0.5) * h
			sum += s.NormDensity(rho) * rho * h
		}
		total := 2 * math.Pi * sum
		if math.Abs(total-1) > 0.01 {
			t.Errorf("%s: normalized density integrates to %v", k.Name(), total)
		}
	}
}

func TestNewSamplerErrorsOnZeroSupport(t *testing.T) {
	if _, err := NewSampler(UniformDisk{D: 0}); err == nil {
		t.Error("NewSampler should error on zero-support kernel")
	}
}

func mustSampler(t *testing.T, k Kernel) *Sampler {
	t.Helper()
	s, err := NewSampler(k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultKernel(t *testing.T) {
	k := DefaultKernel()
	if k.Support() != 1 {
		t.Errorf("default kernel support = %v", k.Support())
	}
}

// The guide table is a pure accelerator: for every u the bracketed
// search in SampleRadius must land on exactly the index a full
// sort.SearchFloat64s over the cdf would return. This drives
// SampleRadius's index over random draws plus every guide bucket
// boundary, where float rounding makes the bracket most fragile.
func TestSamplerGuideMatchesFullSearch(t *testing.T) {
	for _, k := range kernels() {
		s, err := NewSampler(k)
		if err != nil {
			t.Fatalf("NewSampler(%s): %v", k.Name(), err)
		}
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, want := s.index(u), sort.SearchFloat64s(s.cdf, u); got != want {
				t.Fatalf("%s: guide search at u=%v: got index %d, full search %d", k.Name(), u, got, want)
			}
		}
		for g := 0; g <= samplerGuideSize; g++ {
			u := float64(g) / samplerGuideSize
			check(math.Nextafter(u, 0))
			check(u)
			check(math.Nextafter(u, 2))
		}
		r := rand.New(rand.NewSource(13))
		for i := 0; i < 20000; i++ {
			check(r.Float64())
		}
	}
}

// Sample and the disk placements take a drawn direction from
// geom.UnitCircle, which is math.Sincos bit for bit (geom's tests),
// where they once took math.Cos and math.Sin; the bits must agree
// for every angle a draw can produce, and for large arguments, which
// take the other range reduction, or seeded runs would move.
func TestSincosMatchesSinCos(t *testing.T) {
	check := func(x float64) {
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) || math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin, Cos = (%v, %v)", x, s, c, math.Sin(x), math.Cos(x))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000_000; i++ {
		check(rng.Float64() * 2 * math.Pi)
	}
	for _, x := range []float64{0, math.Nextafter(2*math.Pi, 0), math.Pi / 2, math.Pi, 1 << 29, 1 << 30, 1e10, 1e300, math.MaxFloat64} {
		check(x)
	}
	for i := 0; i < 100_000; i++ {
		check(math.Ldexp(rng.Float64()+1, rng.Intn(1000)))
	}
}
