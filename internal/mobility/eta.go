package mobility

import (
	"fmt"
	"math"
	"slices"
)

// EtaTable tabulates the contact-density convolution of Corollary 1,
//
//	eta(x0) = integral over the plane of sHat(|X - X0|) * sHat(|X|) dX,
//
// where sHat = s/Z is the normalized kernel density and |X0| = x0. It is
// the probability density of the difference of two independent draws
// from sHat, so the probability that two nodes with home-point distance
// d meet within range RT (after scale normalization by f) is
// approximately pi*RT^2 * f^2 * eta(f*d). This quantity drives the
// MS-MS link capacity mu(Xh_i, Xh_j) = Theta(f^2 eta(f d)/n).
type EtaTable struct {
	sampler *Sampler
	step    float64
	vals    []float64
}

const (
	etaTableSize  = 512
	etaQuadRings  = 96
	etaQuadAngles = 96
)

// NewEtaTable precomputes eta over [0, 2D] (eta vanishes beyond twice
// the kernel support). Malformed kernels are reported as errors.
func NewEtaTable(k Kernel) (*EtaTable, error) {
	s, err := NewSampler(k)
	if err != nil {
		return nil, fmt.Errorf("mobility: eta table: %w", err)
	}
	d := k.Support()
	t := &EtaTable{
		sampler: s,
		step:    2 * d / etaTableSize,
		vals:    make([]float64, etaTableSize+1),
	}
	for i := 0; i <= etaTableSize; i++ {
		t.vals[i] = etaQuad(s, float64(i)*t.step)
	}
	return t, nil
}

// etaQuad computes the convolution integral at separation x0 by polar
// quadrature centered on one of the two kernels.
func etaQuad(s *Sampler, x0 float64) float64 {
	d := s.kernel.Support()
	hr := d / etaQuadRings
	ha := 2 * math.Pi / etaQuadAngles
	sum := 0.0
	for i := 0; i < etaQuadRings; i++ {
		rho := (float64(i) + 0.5) * hr
		f1 := s.NormDensity(rho)
		if f1 == 0 {
			continue
		}
		inner := 0.0
		for j := 0; j < etaQuadAngles; j++ {
			theta := (float64(j) + 0.5) * ha
			dist := math.Sqrt(rho*rho + x0*x0 - 2*rho*x0*math.Cos(theta))
			inner += s.NormDensity(dist)
		}
		sum += f1 * rho * inner * ha * hr
	}
	return sum
}

// Eta returns eta(x0) by linear interpolation of the table. Values
// beyond 2D are exactly zero.
func (t *EtaTable) Eta(x0 float64) float64 {
	if x0 < 0 {
		x0 = -x0
	}
	pos := x0 / t.step
	i := int(pos)
	if i >= etaTableSize {
		return 0
	}
	frac := pos - float64(i)
	return t.vals[i]*(1-frac) + t.vals[i+1]*frac
}

// MinUpTo returns the least table value at the nodes 0..int(x/step)+1,
// which Eta interpolates between for every separation in [0, x], or 0
// where that reaches past the table (Eta is 0 there). Eta's weighted
// sum of two nodes can round a few ulps below the lesser of them, so
// a strict lower bound needs a relative margin on top.
func (t *EtaTable) MinUpTo(x float64) float64 {
	pos := math.Abs(x) / t.step
	if !(pos < etaTableSize) {
		return 0
	}
	return slices.Min(t.vals[:int(pos)+2])
}

// Sampler returns the underlying normalized-kernel sampler.
func (t *EtaTable) Sampler() *Sampler { return t.sampler }

// Integral returns the numeric integral of eta over the plane, which
// must be 1 for a correctly normalized convolution of densities; it is
// exposed for verification in tests.
func (t *EtaTable) Integral() float64 {
	// eta is radially symmetric: integral = 2*pi * sum eta(r) r dr.
	sum := 0.0
	for i := 0; i < etaTableSize; i++ {
		r := (float64(i) + 0.5) * t.step
		mid := (t.vals[i] + t.vals[i+1]) / 2
		sum += mid * r * t.step
	}
	return 2 * math.Pi * sum
}
