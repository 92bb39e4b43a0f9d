// Package mobility implements the paper's mobility model (Section II.A):
// each mobile station moves around a home-point with stationary spatial
// distribution phi(X) proportional to s(f(n)*|X - Xh|), where s is an
// arbitrary non-increasing kernel with finite support (Definition 2),
// and home-points are placed by the clustered model (Definition 3).
package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hybridcap/internal/geom"
)

// Kernel is the shape function s(d) of Definition 2: non-negative,
// non-increasing, with finite support. Kernels are expressed in
// pre-normalization units where the support D = sup{d : s(d) > 0} is a
// constant independent of n; all uses scale distances by f(n).
type Kernel interface {
	// Density returns s(d) >= 0. Must be non-increasing in d and zero
	// for d > Support().
	Density(d float64) float64
	// Support returns D = sup{d : s(d) > 0}.
	Support() float64
	// Name identifies the kernel in reports.
	Name() string
}

// UniformDisk is s(d) = 1 for d <= D: the node is uniformly distributed
// in a disk of radius D around its home-point. This is the classic
// restricted-mobility model.
type UniformDisk struct {
	D float64
}

// Density implements Kernel.
func (k UniformDisk) Density(d float64) float64 {
	if d <= k.D {
		return 1
	}
	return 0
}

// Support implements Kernel.
func (k UniformDisk) Support() float64 { return k.D }

// Name implements Kernel.
func (k UniformDisk) Name() string { return fmt.Sprintf("uniform(D=%g)", k.D) }

// Cone is s(d) = max(0, 1 - d/D): linearly decaying presence, a node
// found most often near its home-point.
type Cone struct {
	D float64
}

// Density implements Kernel.
func (k Cone) Density(d float64) float64 {
	if d >= k.D {
		return 0
	}
	return 1 - d/k.D
}

// Support implements Kernel.
func (k Cone) Support() float64 { return k.D }

// Name implements Kernel.
func (k Cone) Name() string { return fmt.Sprintf("cone(D=%g)", k.D) }

// TruncGauss is a Gaussian bump exp(-d^2/(2 sigma^2)) truncated at D,
// modelling tightly home-bound users with rare long excursions.
type TruncGauss struct {
	Sigma float64
	D     float64
}

// Density implements Kernel.
func (k TruncGauss) Density(d float64) float64 {
	if d > k.D {
		return 0
	}
	return math.Exp(-d * d / (2 * k.Sigma * k.Sigma))
}

// Support implements Kernel.
func (k TruncGauss) Support() float64 { return k.D }

// Name implements Kernel.
func (k TruncGauss) Name() string {
	return fmt.Sprintf("gauss(sigma=%g,D=%g)", k.Sigma, k.D)
}

// PowerLaw is s(d) = (1 + d/D0)^-Beta truncated at D, the heavy-tailed
// shape observed in real mobility traces (Remark 4 cites such traces).
// Beta must be positive.
type PowerLaw struct {
	D0   float64
	Beta float64
	D    float64
}

// Density implements Kernel.
func (k PowerLaw) Density(d float64) float64 {
	if d > k.D {
		return 0
	}
	return math.Pow(1+d/k.D0, -k.Beta)
}

// Support implements Kernel.
func (k PowerLaw) Support() float64 { return k.D }

// Name implements Kernel.
func (k PowerLaw) Name() string {
	return fmt.Sprintf("powerlaw(d0=%g,beta=%g,D=%g)", k.D0, k.Beta, k.D)
}

var (
	_ Kernel = UniformDisk{}
	_ Kernel = Cone{}
	_ Kernel = TruncGauss{}
	_ Kernel = PowerLaw{}
)

// DefaultKernel is the kernel used by experiments unless stated
// otherwise: a uniform disk of unit radius, matching the paper's generic
// "movement limited to radius D/f(n)" picture with D = 1.
func DefaultKernel() Kernel { return UniformDisk{D: 1} }

// Sampler draws displacements from the normalized 2-D density
// proportional to s(|x|). It uses an inverse-CDF table over the radial
// marginal s(rho)*rho, so sampling is O(log tableSize) and exact up to
// table resolution.
type Sampler struct {
	kernel Kernel
	radii  []float64 // table of radii
	cdf    []float64 // cumulative integral of s(rho)*rho, normalized
	mass   float64   // integral of s(|x|) over the plane
	// guide[g] is the first cdf index >= g/samplerGuideSize: a
	// precomputed coarse inverse of the CDF that narrows SampleRadius's
	// binary search from the full table to a few entries.
	guide []int32
}

const (
	samplerTableSize = 2048
	samplerGuideSize = 512
)

// NewSampler builds a sampler for the kernel. Malformed kernels —
// non-positive support or zero total mass (an all-zero density is not a
// distribution) — are reported as errors so callers fed user-supplied
// kernels can degrade gracefully instead of crashing.
func NewSampler(k Kernel) (*Sampler, error) {
	d := k.Support()
	if d <= 0 {
		return nil, fmt.Errorf("mobility: kernel %s has non-positive support", k.Name())
	}
	s := &Sampler{
		kernel: k,
		radii:  make([]float64, samplerTableSize+1),
		cdf:    make([]float64, samplerTableSize+1),
	}
	// Trapezoidal integration of s(rho)*rho over [0, D].
	h := d / samplerTableSize
	prev := 0.0 // s(0)*0
	acc := 0.0
	s.radii[0] = 0
	s.cdf[0] = 0
	for i := 1; i <= samplerTableSize; i++ {
		rho := float64(i) * h
		cur := k.Density(rho) * rho
		acc += (prev + cur) / 2 * h
		prev = cur
		s.radii[i] = rho
		s.cdf[i] = acc
	}
	if acc <= 0 {
		return nil, fmt.Errorf("mobility: kernel %s has zero mass", k.Name())
	}
	for i := range s.cdf {
		s.cdf[i] /= acc
	}
	s.mass = 2 * math.Pi * acc
	s.guide = make([]int32, samplerGuideSize+1)
	for g := range s.guide {
		s.guide[g] = int32(sort.SearchFloat64s(s.cdf, float64(g)/samplerGuideSize))
	}
	return s, nil
}

// Kernel returns the sampled kernel.
func (s *Sampler) Kernel() Kernel { return s.kernel }

// Mass returns the normalization constant Z = integral of s(|x|) dx over
// the plane; the normalized density is s(|x|)/Z.
func (s *Sampler) Mass() float64 { return s.mass }

// NormDensity returns the normalized 2-D density value s(d)/Z.
func (s *Sampler) NormDensity(d float64) float64 {
	return s.kernel.Density(d) / s.mass
}

// SampleRadius draws a radius from the radial marginal.
func (s *Sampler) SampleRadius(rng *rand.Rand) float64 {
	u := rng.Float64()
	i := s.index(u)
	if i == 0 {
		return 0
	}
	if i > samplerTableSize {
		i = samplerTableSize
	}
	// Linear interpolation inside the bin.
	c0, c1 := s.cdf[i-1], s.cdf[i]
	t := 0.0
	if c1 > c0 {
		t = (u - c0) / (c1 - c0)
	}
	return s.radii[i-1] + t*(s.radii[i]-s.radii[i-1])
}

// index returns the first cdf entry at or above u in [0,1), the index
// sort.SearchFloat64s(s.cdf, u) returns. The guide table brackets the
// search to the few entries around u's bucket. The bracket is
// validated with two O(1) comparisons and the search falls back to the
// full table when float rounding at a bucket boundary invalidates it.
// The brackets partition the table, so a scan of one from its start,
// which cdf[hi] >= u stops, takes a few steps on average.
func (s *Sampler) index(u float64) int {
	g := min(int(u*samplerGuideSize), samplerGuideSize-1)
	lo, hi := int(s.guide[g]), int(s.guide[g+1])
	if (lo > 0 && s.cdf[lo-1] >= u) || s.cdf[hi] < u {
		return sort.SearchFloat64s(s.cdf, u)
	}
	i := lo
	for s.cdf[i] < u {
		i++
	}
	return i
}

// Sample draws a displacement (dx, dy) from the normalized density
// proportional to s(|x|).
func (s *Sampler) Sample(rng *rand.Rand) (dx, dy float64) {
	rho := s.SampleRadius(rng)
	sin, cos := geom.UnitCircle(rng.Float64())
	return rho * cos, rho * sin
}
