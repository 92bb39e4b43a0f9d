package experiments

import (
	"fmt"
	"strings"

	"hybridcap/internal/delay"
	"hybridcap/internal/engine"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/traffic"
)

// delayEval accounts delay on one instance: every requested scheme's
// analytic delay model runs over the instance's traffic pattern,
// folding per-pair breakdowns through a bounded-memory collector. The
// cell value is the per-scheme Stats slice in the requested order.
func delayEval(schemes []string, probs []float64, assoc *delay.AssocConfig) evalFn[[]delay.Stats] {
	return func(nw *network.Network, tr *traffic.Pattern) ([]delay.Stats, error) {
		out := make([]delay.Stats, len(schemes))
		for i, name := range schemes {
			m, err := routing.DelayModelByName(name, nw.Cfg.Params, assoc)
			if err != nil {
				return nil, err
			}
			col, err := delay.NewCollector(probs...)
			if err != nil {
				return nil, err
			}
			unrte, err := m.EvaluateDelay(nw, tr, col.Observe)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			for u := 0; u < unrte; u++ {
				col.ObserveUnroutable()
			}
			out[i] = col.Stats()
		}
		return out, nil
	}
}

// delayPass is the delay-accounting pass over a grid: eval accounts
// each instance's delay for that many schemes, and a point's surviving
// seeds fold into per-scheme sums (see delayAgg).
func delayPass(g *sizeGrid, schemes int, eval evalFn[[]delay.Stats]) gridPass[[]delay.Stats, []delay.Stats] {
	return gridPass[[]delay.Stats, []delay.Stats]{
		phase:  "delay",
		prefix: "experiments: " + g.name + " delay",
		eval:   eval,
		agg:    newDelayAgg(len(g.sizes), schemes),
	}
}

// delayAgg folds delay-cell outcomes into per-point per-scheme sums in
// grid order, the delay-valued analogue of engine.MeanAgg. Sums (not
// means) are kept so shard results merge by plain addition in shard
// order — the same arithmetic order an unsharded sweep uses, which is
// what makes shard merges byte-identical.
type delayAgg struct {
	sum       [][]delay.Stats // per point, per scheme, summed over OK seeds
	ok        []int
	covered   []int
	firstErr  []error
	firstSeed []int
}

// newDelayAgg sizes the aggregator for a points x schemes sweep.
func newDelayAgg(points, schemes int) *delayAgg {
	a := &delayAgg{
		sum:       make([][]delay.Stats, points),
		ok:        make([]int, points),
		covered:   make([]int, points),
		firstErr:  make([]error, points),
		firstSeed: make([]int, points),
	}
	for i := range a.sum {
		a.sum[i] = make([]delay.Stats, schemes)
	}
	return a
}

// Cell implements the engine reduce callback. The engine delivers cells
// in grid order, so per-point seed folds are deterministic.
func (a *delayAgg) Cell(point, seed int, out engine.Outcome[[]delay.Stats]) {
	a.covered[point]++
	if out.Err != nil {
		if a.firstErr[point] == nil {
			a.firstErr[point] = out.Err
			a.firstSeed[point] = seed
		}
		return
	}
	for i := range out.Value {
		if err := a.sum[point][i].Add(out.Value[i]); err != nil {
			if a.firstErr[point] == nil {
				a.firstErr[point] = err
				a.firstSeed[point] = seed
			}
			return
		}
	}
	a.ok[point]++
}

// Point returns point i's per-scheme stat sums with its surviving seed
// count and first failure (by seed order).
func (a *delayAgg) Point(i int) (sum []delay.Stats, ok int, firstErr error, firstSeed int) {
	return a.sum[i], a.ok[i], a.firstErr[i], a.firstSeed[i]
}

// Covered reports how many of point i's cells were delivered.
func (a *delayAgg) Covered(i int) int { return a.covered[i] }

// delayPoint is one grid point's aggregated delay outcome: the
// per-scheme stat sums over its OK seeds (Value; delayMean gives the
// cross-seed average) plus coverage counters.
type delayPoint = gridPoint[[]delay.Stats]

// delayMean returns a point's cross-seed mean stats, leaving its sums
// untouched.
func delayMean(p delayPoint) []delay.Stats {
	out := make([]delay.Stats, len(p.Value))
	for i := range p.Value {
		s := p.Value[i]
		s.Quantile = append([]float64(nil), p.Value[i].Quantile...)
		if p.OK > 0 {
			s.Scale(1 / float64(p.OK))
		}
		out[i] = s
	}
	return out
}

// quantLabels renders quantile probabilities as report labels, e.g.
// "[p50 p99]".
func quantLabels(probs []float64) string {
	parts := make([]string, len(probs))
	for i, p := range probs {
		parts[i] = fmt.Sprintf("p%g", p*100)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// formatDelayRows renders per-point per-scheme delay statistics as
// fixed-format report rows: mean and requested quantiles of the total
// delay, the six-stage component means, the unroutable-pair mean and
// seed coverage.
func formatDelayRows(schemes []string, probs []float64, pts []delayPoint) []string {
	rows := make([]string, 0, len(pts)*len(schemes)+1)
	rows = append(rows, fmt.Sprintf("delay schemes %v quantiles %s", schemes, quantLabels(probs)))
	for _, pt := range pts {
		mean := delayMean(pt)
		for i, name := range schemes {
			st := mean[i]
			var b strings.Builder
			fmt.Fprintf(&b, "delay n=%6d %-13s mean=%.5g", pt.N, name, st.Mean)
			for j, p := range probs {
				fmt.Fprintf(&b, " p%g=%.5g", p*100, st.Quantile[j])
			}
			c := st.Components
			fmt.Fprintf(&b, " src=%.4g mob=%.4g fwd=%.4g up=%.4g bb=%.4g down=%.4g unroutable=%.3g seeds-ok=%d/%d",
				c.SrcQueue, c.MobilityWait, c.Forwarding, c.Uplink, c.Backbone, c.Downlink, st.Unroutable, pt.OK, pt.Covered)
			rows = append(rows, b.String())
		}
	}
	return rows
}
