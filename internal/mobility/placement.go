package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"hybridcap/internal/geom"
)

// Placement is an instance of the clustered home-point model
// (Definition 3): m cluster centers uniform on the torus, each of the n
// home-points assigned to a uniformly random cluster and placed
// uniformly inside its disk of radius r.
type Placement struct {
	ClusterCenters []geom.Point
	HomePoints     []geom.Point
	ClusterOf      []int // cluster index per home-point
	Radius         float64
}

// PlaceClustered draws a placement of n home-points over m clusters of
// radius r. m = n reproduces the uniform (cluster-free) model of
// Remark 3 in distribution when r is of the order of the inter-point
// spacing or larger; for an exactly uniform layout use PlaceUniform.
func PlaceClustered(n, m int, r float64, rng *rand.Rand) (*Placement, error) {
	if n < 1 {
		return nil, fmt.Errorf("mobility: need n >= 1 home-points, got %d", n)
	}
	if m < 1 || m > n {
		return nil, fmt.Errorf("mobility: need 1 <= m <= n clusters, got m=%d n=%d", m, n)
	}
	if r < 0 {
		return nil, fmt.Errorf("mobility: negative cluster radius %g", r)
	}
	p := &Placement{
		ClusterCenters: make([]geom.Point, m),
		HomePoints:     make([]geom.Point, n),
		ClusterOf:      make([]int, n),
		Radius:         r,
	}
	for j := range p.ClusterCenters {
		p.ClusterCenters[j] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	for i := range p.HomePoints {
		c := rng.Intn(m)
		p.ClusterOf[i] = c
		p.HomePoints[i] = uniformInDisk(p.ClusterCenters[c], r, rng)
	}
	return p, nil
}

// PlaceUniform places n home-points independently and uniformly on the
// torus (the m = n special case of the clustered model, Remark 3). Each
// point forms its own singleton cluster.
func PlaceUniform(n int, rng *rand.Rand) (*Placement, error) {
	if n < 1 {
		return nil, fmt.Errorf("mobility: need n >= 1 home-points, got %d", n)
	}
	p := &Placement{
		ClusterCenters: make([]geom.Point, n),
		HomePoints:     make([]geom.Point, n),
		ClusterOf:      make([]int, n),
		Radius:         0,
	}
	for i := range p.HomePoints {
		pt := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		p.HomePoints[i] = pt
		p.ClusterCenters[i] = pt
		p.ClusterOf[i] = i
	}
	return p, nil
}

// NumClusters returns the number of clusters.
func (p *Placement) NumClusters() int { return len(p.ClusterCenters) }

// Len returns the number of home-points.
func (p *Placement) Len() int { return len(p.HomePoints) }

// ClusterSizes returns the number of home-points per cluster.
func (p *Placement) ClusterSizes() []int {
	sizes := make([]int, len(p.ClusterCenters))
	for _, c := range p.ClusterOf {
		sizes[c]++
	}
	return sizes
}

// uniformInDisk draws a point uniformly from the torus disk of the
// given radius around center. Radius zero returns the center itself.
func uniformInDisk(center geom.Point, radius float64, rng *rand.Rand) geom.Point {
	if radius == 0 {
		return center
	}
	rho := radius * math.Sqrt(rng.Float64())
	sin, cos := geom.UnitCircle(rng.Float64())
	return geom.Add(center, rho*cos, rho*sin)
}

// SamplePointNear draws one point from the distribution phi(.|q): the
// kernel density scaled by 1/f and centered at q. It is used both for
// stationary mobility sampling and for the matched BS placement of
// Section II ("for a particular BS j, choose a point Qj by the
// clustered model and let Yj follow distribution phi(Y - Qj)").
func SamplePointNear(q geom.Point, s *Sampler, f float64, rng *rand.Rand) geom.Point {
	dx, dy := s.Sample(rng)
	return geom.Add(q, dx/f, dy/f)
}
