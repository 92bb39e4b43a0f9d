// Package linkcap computes link capacities under scheduling policy S*
// (Definition 9, Lemma 2, Corollary 1) and the local node density used
// to define uniformly dense networks (Definitions 7 and 8, Theorem 1).
//
// Under S* with RT = cT/sqrt(n), the long-run link capacity between two
// nodes equals (up to constants) the probability of finding them within
// range, which for the paper's stationary mobility model evaluates to
//
//	mu(Xh_i, Xh_j) = pi cT^2/n * f^2 * eta(f*|Xh_i - Xh_j|)   (MS-MS)
//	mu(Xh_i, Yh_l) = pi cT^2/n * f^2 * sHat(f*|Xh_i - Yh_l|)  (MS-BS)
//
// where sHat is the normalized kernel density and eta its
// autoconvolution.
package linkcap

import (
	"fmt"
	"math"
	"math/rand"

	"hybridcap/internal/geom"
	"hybridcap/internal/mobility"
	"hybridcap/internal/network"
)

// DefaultCT is the constant cT in RT = cT/sqrt(n) of Definition 10.
const DefaultCT = 1.0

// Analytic evaluates the closed-form link capacities of Corollary 1 for
// one network instance.
type Analytic struct {
	eta *mobility.EtaTable
	f   float64
	n   int
	ct  float64
	// msmsScale is pi*RT^2*f^2, the factor of eta in MSMS. It is
	// multiplied out left to right exactly as MSMSAt's product is, so
	// MSMS(d) and MSMSAt(d, RT()) agree bit for bit.
	msmsScale float64
}

// NewAnalytic builds the evaluator. ct <= 0 selects DefaultCT. The
// error of a malformed mobility kernel propagates from the network's
// eta table.
func NewAnalytic(nw *network.Network, ct float64) (*Analytic, error) {
	if ct <= 0 {
		ct = DefaultCT
	}
	eta, err := nw.Eta()
	if err != nil {
		return nil, fmt.Errorf("linkcap: %w", err)
	}
	a := &Analytic{
		eta: eta,
		f:   nw.F(),
		n:   nw.NumMS(),
		ct:  ct,
	}
	rt := a.RT()
	a.msmsScale = math.Pi * rt * rt * a.f * a.f
	return a, nil
}

// RT returns the S* transmission range cT/sqrt(n).
func (a *Analytic) RT() float64 { return a.ct / math.Sqrt(float64(a.n)) }

// MSMS returns the link capacity between two MSs whose home-points are
// dHome apart.
func (a *Analytic) MSMS(dHome float64) float64 {
	// The inverted test caps at 1 exactly as math.Min(1, v) does,
	// passing NaN and -0 through unchanged, without its special cases.
	if v := a.msmsScale * a.eta.Eta(a.f*dHome); !(v > 1) {
		return v
	}
	return 1
}

// MSMSBetween returns the link capacity between two MSs with
// home-points p and q, which honor the [0,1) coordinate invariant. It
// is MSMS(geom.Dist(p, q)) bit for bit: geom.Dist2Unit is geom.Dist2
// on such points.
func (a *Analytic) MSMSBetween(p, q geom.Point) float64 {
	return a.MSMS(math.Sqrt(geom.Dist2Unit(p, q)))
}

// MSMSSum returns the sum of MSMSBetween(p, homes[id]) over ids in
// order, leaving out the id at position skip: an MS's aggregate link
// capacity over a neighbor list that holds the MS itself. MSMSBetween
// is too large to inline, so the loop spells it out rather than pay a
// call per term.
func (a *Analytic) MSMSSum(p geom.Point, homes []geom.Point, ids []int32, skip int) float64 {
	sum := 0.0
	for k, id := range ids {
		if k != skip {
			sum += a.MSMS(math.Sqrt(geom.Dist2Unit(p, homes[id])))
		}
	}
	return sum
}

// floorMargin is the relative slack MSMSFloor leaves: it dwarfs the
// few-ulp rounding of the eta interpolation, of its scaling and of a
// distance's square root, so the bound holds for computed values.
const floorMargin = 1e-12

// MSMSFloor returns a lower bound on MSMS(d) over every home distance
// d up to dMax (and an ulp or so past it, as a square root of a squared
// distance bounded by dMax^2 may round): the least eta table node the
// interpolation reaches, scaled and capped as MSMS is, less a relative
// margin. It is zero where the distances reach the end of eta's table.
func (a *Analytic) MSMSFloor(dMax float64) float64 {
	v := a.msmsScale * a.eta.MinUpTo(a.f*dMax*(1+floorMargin))
	return min(1, v) * (1 - floorMargin)
}

// MSMSAt evaluates the MS-MS link capacity for an arbitrary
// transmission range rt: pi*rt^2 * f^2 * eta(f*d), the meeting
// probability within range rt. Valid while rt is small against the
// mobility radius; capacities are capped at 1 (the normalized channel
// bandwidth W).
func (a *Analytic) MSMSAt(dHome, rt float64) float64 {
	return math.Min(1, math.Pi*rt*rt*a.f*a.f*a.eta.Eta(a.f*dHome))
}

// MSBS returns the link capacity between an MS with home-point dHome
// away from a static BS.
func (a *Analytic) MSBS(dHome float64) float64 {
	return a.MSBSAt(dHome, a.RT())
}

// MSBSAt evaluates the MS-BS link capacity for an arbitrary
// transmission range rt.
func (a *Analytic) MSBSAt(dHome, rt float64) float64 {
	return math.Min(1, math.Pi*rt*rt*a.f*a.f*a.eta.Sampler().NormDensity(a.f*dHome))
}

// F returns the network extension the evaluator was built with.
func (a *Analytic) F() float64 { return a.f }

// Reach returns the maximum home-point distance at which two MSs can
// ever meet: twice the mobility radius, 2D/f.
func (a *Analytic) Reach() float64 {
	return 2 * a.eta.Sampler().Kernel().Support() / a.f
}

// BSReach returns the maximum home-point distance at which an MS can
// reach a static BS: the mobility radius D/f (plus the transmission
// range, which is asymptotically negligible).
func (a *Analytic) BSReach() float64 {
	return a.eta.Sampler().Kernel().Support() / a.f
}

// AccessRate returns mu_i^A of Lemma 9: the aggregate capacity between
// MS i (by home-point) and the whole infrastructure. The lemma shows
// this is Theta(k/n) in uniformly dense networks.
func (a *Analytic) AccessRate(home geom.Point, bs []geom.Point) float64 {
	sum := 0.0
	for _, y := range bs {
		sum += a.MSBS(geom.Dist(home, y))
	}
	return sum
}

// MeetingProbability estimates by Monte Carlo the probability that two
// stationary nodes with the given home-points are within rt of each
// other, the quantity Lemma 2 equates (up to Theta) with link capacity.
func MeetingProbability(h1, h2 geom.Point, s *mobility.Sampler, f, rt float64, trials int, rnd *rand.Rand) float64 {
	if trials <= 0 {
		return 0
	}
	hits := 0
	for t := 0; t < trials; t++ {
		p1 := mobility.SamplePointNear(h1, s, f, rnd)
		p2 := mobility.SamplePointNear(h2, s, f, rnd)
		if geom.Dist(p1, p2) <= rt {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// Density and uniformity (Definitions 7 and 8).

// ballQuadPoints are midpoint offsets (in units of the ball radius) for
// a 9-point quadrature over the unit disk with equal-area weights.
var ballQuadPoints = [][2]float64{
	{0, 0},
	{0.55, 0}, {-0.55, 0}, {0, 0.55}, {0, -0.55},
	{0.62, 0.62}, {-0.62, 0.62}, {0.62, -0.62}, {-0.62, -0.62},
}

// LocalDensity evaluates rho(X) of Definition 7 analytically: the
// expected number of nodes (MSs under their stationary law, plus static
// BSs) inside the ball B(X, 1/sqrt(n)). In a uniformly dense network
// this is Theta(1) uniformly in X.
func LocalDensity(at geom.Point, homes, bs []geom.Point, s *mobility.Sampler, f float64, n int) float64 {
	r := 1 / math.Sqrt(float64(n))
	area := math.Pi * r * r
	sum := 0.0
	for _, h := range homes {
		// Average the stationary density over the ball by quadrature;
		// a single midpoint evaluation is inaccurate once the mobility
		// radius D/f is comparable to the ball radius.
		avg := 0.0
		for _, q := range ballQuadPoints {
			p := geom.Add(at, q[0]*r, q[1]*r)
			avg += s.NormDensity(f * geom.Dist(p, h))
		}
		avg /= float64(len(ballQuadPoints))
		sum += area * f * f * avg
	}
	for _, y := range bs {
		if geom.Dist(at, y) <= r {
			sum++
		}
	}
	return sum
}

// DensityField evaluates LocalDensity at the centers of a grid and
// returns the values in row-major order.
func DensityField(nw *network.Network, g geom.Grid) []float64 {
	homes := nw.HomePoints()
	out := make([]float64, g.NumCells())
	for idx := range out {
		c, r := g.ColRow(idx)
		out[idx] = LocalDensity(g.Center(c, r), homes, nw.BSPos, nw.Sampler, nw.F(), nw.NumMS())
	}
	return out
}

// UniformityReport summarizes a density field.
type UniformityReport struct {
	Min, Max, Mean float64
	// Ratio is Max/Min; a uniformly dense network keeps it bounded as n
	// grows, a non-uniformly dense one blows it up.
	Ratio float64
}

// Uniformity summarizes a density field produced by DensityField.
func Uniformity(field []float64) (UniformityReport, error) {
	if len(field) == 0 {
		return UniformityReport{}, fmt.Errorf("linkcap: empty density field")
	}
	rep := UniformityReport{Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range field {
		rep.Min = math.Min(rep.Min, v)
		rep.Max = math.Max(rep.Max, v)
		sum += v
	}
	rep.Mean = sum / float64(len(field))
	if rep.Min > 0 {
		rep.Ratio = rep.Max / rep.Min
	} else {
		rep.Ratio = math.Inf(1)
	}
	return rep, nil
}
