package experiments

import (
	"fmt"

	"hybridcap/internal/capacity"
	"hybridcap/internal/measure"
	"hybridcap/internal/scenario"
)

// table1Row is one row of Table I: a declarative scenario for the
// regime's canonical parameter point plus the expected classification.
type table1Row struct {
	sc *scenario.Scenario
	// regime is the expected classification.
	regime capacity.Regime
}

// Shared size grid of the Table-I sweeps.
var (
	table1Sizes      = []int{1024, 2048, 4096, 8192, 16384}
	table1QuickSizes = []int{512, 1024, 2048}
)

// rowScenario builds one Table-I scenario. The scenario name doubles as
// the row label and salts the sweep's seed derivation.
func rowScenario(name, desc string, base scenario.Exponents, placement string, schemes ...string) *scenario.Scenario {
	return &scenario.Scenario{
		Name:        name,
		Description: desc,
		Base:        base,
		Sizes:       table1Sizes,
		QuickSizes:  table1QuickSizes,
		Schemes:     schemes,
		Placement:   placement,
		Fit:         true,
	}
}

// table1Rows returns the canonical parameter point per Table-I row.
// Points are chosen so the regime conditions hold symbolically AND the
// finite-size effects (squarelet occupancy, BSs per cluster, spatial
// reuse at the larger RT) are already in their asymptotic behavior at
// n in the low tens of thousands; see DESIGN.md for the derivations.
// The weak-noBS row's gridMultihop cell side is sqrt(gamma(n)): the
// critical range of Lemma 10 without the Lemma-1 constant 16+beta,
// which at laptop n would inflate the side beyond the torus; expected
// clusters per cell is still log m.
func table1Rows() []table1Row {
	return []table1Row{
		{
			sc: rowScenario("strong-noBS", "Table I: strong mobility without infrastructure",
				scenario.Exponents{Alpha: 0.3, K: -1, M: 1}, "grid", "schemeA"),
			regime: capacity.StrongMobility,
		},
		{
			sc: rowScenario("strong-BS", "Table I: strong mobility with infrastructure",
				scenario.Exponents{Alpha: 0.3, K: 0.8, Phi: 1, M: 1}, "grid", "schemeA", "schemeB"),
			regime: capacity.StrongMobility,
		},
		{
			sc: rowScenario("weak-noBS", "Table I: weak mobility without infrastructure",
				scenario.Exponents{Alpha: 0.45, K: -1, M: 0.8, R: 0.42}, "grid", "gridMultihop"),
			regime: capacity.WeakMobility,
		},
		{
			sc: rowScenario("weak-BS", "Table I: weak mobility with infrastructure",
				scenario.Exponents{Alpha: 0.45, K: 0.7, Phi: 1, M: 0.4, R: 0.25}, "matched", "schemeBcluster"),
			regime: capacity.WeakMobility,
		},
		{
			sc: rowScenario("trivial-BS", "Table I: trivial mobility with infrastructure",
				scenario.Exponents{Alpha: 0.7, K: 0.6, Phi: 1, M: 0.2, R: 0.11}, "matched", "schemeC"),
			regime: capacity.TrivialMobility,
		},
	}
}

// table1Scenarios lists the Table-I rows as plain scenarios for the
// registry (and for export as example scenario files).
func table1Scenarios() []*scenario.Scenario {
	rows := table1Rows()
	scs := make([]*scenario.Scenario, len(rows))
	for i, row := range rows {
		scs[i] = row.sc
	}
	return scs
}

// Table1 regenerates Table I: for each regime row it sweeps n, fits the
// measured capacity exponent and tabulates it against the theoretical
// order, alongside the regime classification and optimal transmission
// range. Every row is a declarative scenario executed by the grid
// engine.
func Table1(o Options) (*Result, error) {
	res := &Result{
		ID:          "T1",
		Description: "Table I: per-node capacity and optimal RT per mobility regime",
		XName:       "n",
		Fits:        map[string]*measure.Fit{},
	}
	res.Rows = append(res.Rows,
		fmt.Sprintf("%-12s %-9s %-26s %-12s %-9s %-10s %s",
			"row", "regime", "theory-capacity", "measured-E", "R2", "match", "optimal-RT"))
	for _, row := range table1Rows() {
		sizes := o.sizes(row.sc.SizesFor(false), row.sc.SizesFor(true))
		p := row.sc.Base.Params(sizes[0])
		regime, _ := capacity.Classify(p)
		if regime != row.regime {
			return nil, fmt.Errorf("experiments: row %s classifies as %v, want %v", row.sc.Name, regime, row.regime)
		}
		series, _, err := sweepScenario(o, row.sc, sizes)
		if err != nil {
			return nil, err
		}
		fit, err := series.Fit()
		if err != nil {
			return nil, fmt.Errorf("experiments: fit %s: %w", row.sc.Name, err)
		}
		res.Series = append(res.Series, series)
		res.Fits[row.sc.Name] = fit
		theory := capacity.PerNodeCapacity(p)
		match := "OK"
		if diff := fit.Exponent - theory.E; diff > 0.2 || diff < -0.2 {
			match = fmt.Sprintf("OFF(%+.2f)", diff)
		}
		res.Rows = append(res.Rows, fmt.Sprintf("%-12s %-9s %-26s %-+12.3f %-9.3f %-10s %s",
			row.sc.Name, regime, theory, fit.Exponent, fit.R2, match, capacity.OptimalRT(p)))
	}
	return res, nil
}
