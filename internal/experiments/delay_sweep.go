package experiments

import (
	"fmt"
	"strings"

	"hybridcap/internal/delay"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/traffic"
)

// delayEval accounts delay on one instance: every requested scheme's
// analytic delay model runs over the instance's traffic pattern,
// folding per-pair breakdowns through a bounded-memory collector. The
// cell's delay half is the per-scheme Stats' flat forms in the
// requested order, delayWidth(schemes, probs) values in all.
func delayEval(schemes []string, probs []float64, assoc *delay.AssocConfig) evalFn[[]float64] {
	return func(nw *network.Network, tr *traffic.Pattern) ([]float64, error) {
		out := make([]float64, 0, delayWidth(schemes, probs))
		for _, name := range schemes {
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
			out = col.Stats().AppendFlat(out)
		}
		return out, nil
	}
}

// delayWidth is the length of a delay half over schemes with the given
// quantile probabilities.
func delayWidth(schemes []string, probs []float64) int {
	return len(schemes) * delay.FlatLen(len(probs))
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
func formatDelayRows(schemes []string, probs []float64, pts []gridPoint) []string {
	rows := make([]string, 0, len(pts)*len(schemes)+1)
	rows = append(rows, fmt.Sprintf("delay schemes %v quantiles %s", schemes, quantLabels(probs)))
	for _, pt := range pts {
		mean := delay.StatsFromFlat(pt.Delay, len(probs))
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
