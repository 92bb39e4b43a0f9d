package experiments

import (
	"fmt"

	"hybridcap/internal/delay"
	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/scenario"
	"hybridcap/internal/sim"
)

// e15StrongScenario is the strong-regime delay scenario: one uniformly
// dense population evaluated by both transport families plus the two
// baselines, with delay accounting over all of them.
func e15StrongScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "delayStrong",
		Description: "delay accounting, strong regime: infrastructure vs mobility transport",
		Base:        scenario.Exponents{Alpha: 0.15, K: 0.8, Phi: 1, M: 1},
		Sizes:       []int{1024, 2048, 4096},
		QuickSizes:  []int{256, 512},
		Schemes:     []string{"schemeA", "schemeB", "twoHop", "d2d"},
		Placement:   "grid",
		Delay:       &scenario.DelaySpec{},
	}
}

// e15WeakScenario is the weak-regime delay scenario: a clustered
// population where cluster-grouped infrastructure competes with static
// multihop.
func e15WeakScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "delayWeak",
		Description: "delay accounting, weak regime: cluster infrastructure vs static multihop",
		Base:        scenario.Exponents{Alpha: 0.45, K: 0.7, Phi: 1, M: 0.4, R: 0.25},
		Sizes:       []int{2048, 4096, 8192},
		QuickSizes:  []int{512, 1024},
		Schemes:     []string{"schemeBcluster", "gridMultihop"},
		Placement:   "matched",
		Delay:       &scenario.DelaySpec{},
	}
}

// delayMeanAt extracts a scheme's cross-seed mean total delay at the
// sweep's largest size.
func delayMeanAt(sc *scenario.Scenario, pts []gridPoint, scheme string) (float64, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	last := delay.StatsFromFlat(pts[len(pts)-1].Delay, len(sc.DelayQuantiles()))
	for i, name := range sc.DelaySchemes() {
		if name == scheme {
			return last[i].Mean, true
		}
	}
	return 0, false
}

// delayOrderRow renders one Table-I ordering check: the prediction that
// scheme a's delay sits below scheme b's at the largest size.
func delayOrderRow(label string, a, b float64) string {
	verdict := "OK"
	if !(a < b) {
		verdict = "VIOLATED"
	}
	return fmt.Sprintf("delay order %s: %s (%.5g vs %.5g)", label, verdict, a, b)
}

// DelayCapacity (E15) exercises the delay-accounting subsystem end to
// end: per-scheme delay decompositions over the strong and weak regimes
// (the same instances the lambda sweeps evaluate), the Table-I delay
// ordering predictions as explicit checks, and a packet-level
// association-churn demonstration — the same mid-run BS outage served
// by legacy instant re-homing and by the association-dynamics model,
// whose margin/hysteresis/time-to-trigger turn the outage into a
// measurable re-association delay spike and handover churn.
func DelayCapacity(o Options) (*Result, error) {
	res := &Result{
		ID:          "E15",
		Description: "delay-capacity trade-off: per-scheme delay decomposition with association churn",
		XName:       "n",
	}
	strong := e15StrongScenario()
	weak := e15WeakScenario()
	type regimeOut struct {
		sc  *scenario.Scenario
		pts []gridPoint
	}
	outs := make([]regimeOut, 0, 2)
	for _, sc := range []*scenario.Scenario{strong, weak} {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		sizes := o.sizes(sc.SizesFor(false), sc.SizesFor(true))
		lam, pts, err := sweepScenario(o, sc, sizes)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, lam)
		res.Rows = append(res.Rows, fmt.Sprintf("%s: schemes %v, %d sizes x %d seeds",
			sc.Name, sc.Schemes, len(sizes), o.seeds()))
		for i := range lam.X {
			res.Rows = append(res.Rows, fmt.Sprintf("%s n=%6.0f lambda=%.5g seeds-ok=%d/%d",
				sc.Name, lam.X[i], lam.Y[i], lam.OK[i], lam.Attempts[i]))
		}
		res.Rows = append(res.Rows, formatDelayRows(sc.DelaySchemes(), sc.DelayQuantiles(), pts)...)
		outs = append(outs, regimeOut{sc: sc, pts: pts})
	}

	// Table-I ordering checks at the largest size of each regime: both
	// infrastructure transport and squarelet relaying beat the pure
	// mobility wait of two-hop relaying in the strong regime, and
	// cluster infrastructure beats static multihop's TDMA chain in the
	// weak one.
	type check struct {
		out  int
		a, b string
	}
	for _, c := range []check{
		{0, "schemeB", "twoHop"},
		{0, "schemeA", "twoHop"},
		{1, "schemeBcluster", "gridMultihop"},
	} {
		ro := outs[c.out]
		av, aok := delayMeanAt(ro.sc, ro.pts, c.a)
		bv, bok := delayMeanAt(ro.sc, ro.pts, c.b)
		if !aok || !bok {
			return nil, fmt.Errorf("experiments: E15: missing delay stats for %s/%s", c.a, c.b)
		}
		res.Rows = append(res.Rows, delayOrderRow(fmt.Sprintf("%s %s < %s", ro.sc.Name, c.a, c.b), av, bv))
	}

	// Association-churn demonstration: the same mid-run outage under
	// legacy instant re-homing and under the association model. The
	// legacy path is onset-blind (outage holds from slot zero); the
	// association path applies the mask at the onset and pays detection,
	// time-to-trigger and handover transfers for every re-association.
	n, slots := 1024, 12000
	if o.Quick {
		n, slots = 256, 4000
	}
	p := e15StrongScenario().Base.Params(n)
	fc := &faults.Config{Seed: 7, BSOutageFraction: 0.3, BSOutageStart: slots / 2}
	lambda := 0.002
	plan, err := faults.New(*fc)
	if err != nil {
		return nil, err
	}
	cfg := network.Config{Params: p, Seed: 91, BSPlacement: network.Grid, Faults: plan}
	nw1, tr, err := build(cfg)
	if err != nil {
		return nil, err
	}
	legacy, err := sim.RunInfrastructure(nw1, tr, sim.InfraConfig{Lambda: lambda, Slots: slots, Seed: 91})
	if err != nil {
		return nil, err
	}
	nw2, _, err := build(cfg)
	if err != nil {
		return nil, err
	}
	assoc := &delay.AssocConfig{HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8}
	dyn, err := sim.RunInfrastructure(nw2, tr, sim.InfraConfig{Lambda: lambda, Slots: slots, Seed: 91, Assoc: assoc})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows,
		fmt.Sprintf("assoc churn: n=%d outage=%.2g onset=%d slots=%d margin=%.3g hyst=%.3g ttt=%d",
			n, fc.BSOutageFraction, fc.BSOutageStart, slots, assoc.HandoverMargin, assoc.Hysteresis, assoc.TimeToTrigger),
		fmt.Sprintf("legacy rehoming: delivered %.5g /node/slot, mean delay %8.1f (up=%.1f bb=%.2f down=%.1f), retries %d",
			legacy.DeliveredRate, legacy.MeanDelay, legacy.MeanUplinkWait, legacy.MeanBackboneWait, legacy.MeanDownlinkWait, legacy.Retries),
		fmt.Sprintf("assoc dynamics:  delivered %.5g /node/slot, mean delay %8.1f (up=%.1f bb=%.2f down=%.1f), handovers %d, transferred %d",
			dyn.DeliveredRate, dyn.MeanDelay, dyn.MeanUplinkWait, dyn.MeanBackboneWait, dyn.MeanDownlinkWait, dyn.Handovers, dyn.Transferred),
	)
	return res, nil
}
