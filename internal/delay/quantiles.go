package delay

import (
	"fmt"
	"sort"
)

// quantiles estimates quantiles of a stream of values in bounded
// memory with the P-squared algorithm (Jain & Chlamtac, CACM 1985):
// five markers per requested probability, updated once per observation,
// no sample storage — O(probabilities), never O(observations). Marker
// updates depend only on arrival order, so values observed in grid
// order (engine.Stream's delivery order) give byte-identical estimates
// for every worker count.
//
// The estimator is approximate by construction (that is the price of
// bounded memory); with fewer than five observations per marker set the
// exact sample quantile is returned instead.
type quantiles struct {
	probs []float64
	est   []*p2Estimator
	count int
}

// newQuantiles prepares estimators for the given probabilities, each of
// which must lie strictly between 0 and 1.
func newQuantiles(probs ...float64) (*quantiles, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("quantiles: at least one probability is required")
	}
	q := &quantiles{probs: append([]float64(nil), probs...)}
	for _, p := range q.probs {
		if p <= 0 || p >= 1 {
			return nil, fmt.Errorf("quantiles: probability %v outside (0, 1)", p)
		}
		q.est = append(q.est, newP2(p))
	}
	return q, nil
}

// observe feeds one value to every estimator.
func (q *quantiles) observe(v float64) {
	q.count++
	for _, e := range q.est {
		e.observe(v)
	}
}

// quantile returns the current estimate for probability p. The bool is
// false when p was not requested at construction or nothing was
// observed yet.
func (q *quantiles) quantile(p float64) (float64, bool) {
	for i, qp := range q.probs {
		if qp == p {
			if q.count == 0 {
				return 0, false
			}
			return q.est[i].quantile(), true
		}
	}
	return 0, false
}

// p2Estimator is one P-squared marker set: five heights tracking the
// minimum, the p/2, p and (1+p)/2 quantiles, and the maximum.
type p2Estimator struct {
	p  float64
	n  int        // observations so far
	q  [5]float64 // marker heights
	np [5]float64 // marker positions (1-based)
	nd [5]float64 // desired marker positions
}

func newP2(p float64) *p2Estimator {
	return &p2Estimator{p: p}
}

func (e *p2Estimator) observe(v float64) {
	if e.n < 5 {
		e.q[e.n] = v
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := 0; i < 5; i++ {
				e.np[i] = float64(i + 1)
			}
			e.nd[0] = 1
			e.nd[1] = 1 + 2*e.p
			e.nd[2] = 1 + 4*e.p
			e.nd[3] = 3 + 2*e.p
			e.nd[4] = 5
		}
		return
	}
	e.n++
	// Locate the cell k such that q[k] <= v < q[k+1], extending the
	// extreme markers when v falls outside them.
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.np[i]++
	}
	incr := [5]float64{0, e.p / 2, e.p, (1 + e.p) / 2, 1}
	for i := 0; i < 5; i++ {
		e.nd[i] += incr[i]
	}
	// Adjust the three interior markers toward their desired positions,
	// preferring the piecewise-parabolic (P-squared) height prediction
	// and falling back to linear interpolation when it would break
	// monotonicity.
	for i := 1; i < 4; i++ {
		d := e.nd[i] - e.np[i]
		if (d >= 1 && e.np[i+1]-e.np[i] > 1) || (d <= -1 && e.np[i-1]-e.np[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.np[i] += s
		}
	}
}

// parabolic is the P-squared height update for marker i moved by d
// (+1 or -1).
func (e *p2Estimator) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.np[i+1]-e.np[i-1])*
		((e.np[i]-e.np[i-1]+d)*(e.q[i+1]-e.q[i])/(e.np[i+1]-e.np[i])+
			(e.np[i+1]-e.np[i]-d)*(e.q[i]-e.q[i-1])/(e.np[i]-e.np[i-1]))
}

// linear is the fallback height update for marker i moved by d.
func (e *p2Estimator) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.np[j]-e.np[i])
}

// quantile reads the current estimate: the middle marker once the
// estimator is warm, the exact sample quantile (nearest rank) before.
func (e *p2Estimator) quantile() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		vals := append([]float64(nil), e.q[:e.n]...)
		sort.Float64s(vals)
		idx := int(e.p * float64(e.n))
		if idx >= e.n {
			idx = e.n - 1
		}
		return vals[idx]
	}
	return e.q[2]
}
