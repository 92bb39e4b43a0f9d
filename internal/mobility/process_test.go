package mobility

import (
	"math"
	"testing"

	"hybridcap/internal/geom"
	"hybridcap/internal/rng"
)

func TestIIDStationaryRadius(t *testing.T) {
	s := mustSampler(t, UniformDisk{D: 1})
	r := rng.New(1).Rand()
	home := geom.Point{X: 0.3, Y: 0.3}
	f := 8.0
	p := &NewIIDs([]geom.Point{home}, s, f, r)[0]
	const n = 20000
	within := 0
	for i := 0; i < n; i++ {
		p.Step(r)
		d := geom.Dist(p.Position(), home)
		if d > 1/f+1e-9 {
			t.Fatalf("excursion %v beyond D/f", d)
		}
		if d <= 0.5/f {
			within++
		}
	}
	// Uniform disk: quarter of samples within half radius.
	got := float64(within) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("P(d <= D/2f) = %v, want 0.25", got)
	}
}

func TestWalkStaysInSupport(t *testing.T) {
	s := mustSampler(t, Cone{D: 1})
	r := rng.New(2).Rand()
	home := geom.Point{X: 0.7, Y: 0.2}
	f := 4.0
	p := NewWalk(home, s, f, 0, r)
	for i := 0; i < 20000; i++ {
		p.Step(r)
		if d := geom.Dist(p.Position(), home); d > 1/f+1e-9 {
			t.Fatalf("walk escaped support: %v", d)
		}
	}
}

// The Metropolis walk must converge to the same stationary law as the
// i.i.d. process: compare the long-run fraction of time within half the
// support radius with the analytic value for the uniform-disk kernel.
func TestWalkStationaryMatchesKernel(t *testing.T) {
	s := mustSampler(t, UniformDisk{D: 1})
	r := rng.New(3).Rand()
	home := geom.Point{X: 0.5, Y: 0.5}
	f := 4.0
	p := NewWalk(home, s, f, 0.3, r)
	// Warm up for 20 times the walk's mixing time, (D/step)^2 = 1/0.3^2
	// rounded up to 12 steps.
	const warm = 240
	for i := 0; i < warm; i++ {
		p.Step(r)
	}
	const n = 200000
	within := 0
	for i := 0; i < n; i++ {
		p.Step(r)
		if geom.Dist(p.Position(), home) <= 0.5/f {
			within++
		}
	}
	got := float64(within) / n
	if math.Abs(got-0.25) > 0.03 {
		t.Errorf("walk occupancy of half-radius disk = %v, want 0.25", got)
	}
}

func TestWalkMovesLocally(t *testing.T) {
	s := mustSampler(t, UniformDisk{D: 1})
	r := rng.New(4).Rand()
	f := 10.0
	p := NewWalk(geom.Point{X: 0.5, Y: 0.5}, s, f, 0.1, r)
	prev := p.Position()
	maxStep := 0.0
	for i := 0; i < 5000; i++ {
		p.Step(r)
		if d := geom.Dist(prev, p.Position()); d > maxStep {
			maxStep = d
		}
		prev = p.Position()
	}
	// Steps are Gaussian with scale 0.1*D/f; 6 sigma (two axes) bound.
	if maxStep > 6*0.1/f {
		t.Errorf("walk step %v too large for proposal scale %v", maxStep, 0.1/f)
	}
}

func TestStaticNeverMoves(t *testing.T) {
	r := rng.New(5).Rand()
	pos := geom.Point{X: 0.1, Y: 0.9}
	p := NewStatic(pos)
	for i := 0; i < 100; i++ {
		p.Step(r)
		if p.Position() != pos {
			t.Fatal("static process moved")
		}
	}
	p.Reset(r)
	if p.Position() != pos || p.Home() != pos {
		t.Error("static process reset moved it")
	}
}

func TestResetRedraws(t *testing.T) {
	s := mustSampler(t, UniformDisk{D: 1})
	r := rng.New(6).Rand()
	p := &NewIIDs([]geom.Point{{X: 0.5, Y: 0.5}}, s, 2, r)[0]
	seen := map[geom.Point]bool{}
	for i := 0; i < 10; i++ {
		p.Reset(r)
		seen[p.Position()] = true
	}
	if len(seen) < 2 {
		t.Error("Reset should redraw positions")
	}
}
