package experiments

import (
	"fmt"
	"math"

	"hybridcap/internal/asciiplot"
	"hybridcap/internal/faults"
	"hybridcap/internal/measure"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
)

// Resilience (E14) drives the fault-injection subsystem end to end:
// scheme B with a scheme-A fallback is evaluated across nested BS
// outages (fraction q of BSs dead, nested so larger q only removes
// more) and across backbone edge outages. In an infrastructure-dominant
// regime the rate must start at the healthy scheme-B rate, decrease
// monotonically as outages grow, and land on the pure ad hoc (scheme A)
// floor at total outage — graceful degradation instead of a cliff.
func Resilience(o Options) (*Result, error) {
	n := 4096
	if o.Quick {
		n = 1024
	}
	// Infrastructure-dominant point: K > 1 - Alpha, so scheme B's
	// k/n beats scheme A's 1/f and outages have room to bite.
	p := scaling.Params{N: n, Alpha: 0.4, K: 0.8, Phi: 1, M: 1}
	res := &Result{
		ID:          "E14",
		Description: "fault resilience: scheme B + fallback rate vs infrastructure outages",
		XName:       "outageFraction",
	}
	const faultSeed = 99
	fractions := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95, 1}
	scheme := routing.SchemeB{Fallback: routing.SchemeA{}}

	// The outage grid's points are the healthy network (no plan
	// installed) followed by the BS and the edge outage fractions.
	// Edge fractions live in [0, 1); the BS grid's 1.0 endpoint maps to
	// a near-total edge outage.
	configs := []faults.Config{{Seed: faultSeed}}
	for _, q := range fractions {
		configs = append(configs, faults.Config{Seed: faultSeed, BSOutageFraction: q})
	}
	for _, q := range fractions {
		configs = append(configs, faults.Config{Seed: faultSeed, EdgeOutageFraction: math.Min(q, 0.99)})
	}
	seeds := o.seeds()
	evs, err := strictGrid(o, "grid E14 outages", len(configs), seeds, nil, func(point, seed int) (*routing.Evaluation, error) {
		cfg := network.Config{Params: p, Seed: uint64(90 + seed), BSPlacement: network.Grid}
		return cellStep(cfg, &configs[point], scheme.Evaluate)
	})
	if err != nil {
		return nil, err
	}
	// at folds a point's seeds in seed order.
	at := func(point int) (lambda float64, degraded, dropped int) {
		for _, ev := range evs[point*seeds : (point+1)*seeds] {
			lambda += ev.Lambda
			degraded += ev.Degraded
			dropped += ev.Dropped
		}
		return lambda / float64(seeds), degraded / seeds, dropped / seeds
	}
	// The pure ad hoc floor.
	floors, err := strictGrid(o, "grid E14 floor", 1, seeds, nil, func(_, seed int) (float64, error) {
		return cellStep(network.Config{Params: p, Seed: uint64(90 + seed), BSPlacement: network.Grid}, nil,
			lambdaOf(routing.SchemeA{}))
	})
	if err != nil {
		return nil, err
	}
	healthy, _, _ := at(0)
	res.Rows = append(res.Rows,
		fmt.Sprintf("healthy schemeB lambda=%.5g, pure ad hoc floor (schemeA)=%.5g", healthy, pointMeans(floors, seeds)[0]))

	bsSeries := &measure.Series{Name: "lambda vs BS outage"}
	edgeSeries := &measure.Series{Name: "lambda vs edge outage"}
	for i, q := range fractions {
		lambda, degraded, dropped := at(1 + i)
		bsSeries.Add(q, lambda)
		res.Rows = append(res.Rows, fmt.Sprintf("bs-outage=%.2f lambda=%.5g relative=%.3f degraded=%d dropped=%d",
			q, lambda, lambda/healthy, degraded, dropped))
	}
	for i, q := range fractions {
		pt := 1 + len(fractions) + i
		lambda, degraded, dropped := at(pt)
		edgeSeries.Add(q, lambda)
		res.Rows = append(res.Rows, fmt.Sprintf("edge-outage=%.2f lambda=%.5g relative=%.3f degraded=%d dropped=%d",
			configs[pt].EdgeOutageFraction, lambda, lambda/healthy, degraded, dropped))
	}
	res.Series = append(res.Series, bsSeries, edgeSeries)
	res.Rows = append(res.Rows,
		"theory: nested outages shrink the live BS set monotonically; rate decays from the hybrid rate to the ad hoc floor")

	chart := asciiplot.LineChart{Title: "lambda vs outage fraction"}
	ascii, err := chart.Render(
		[]string{bsSeries.Name, edgeSeries.Name},
		[][]float64{bsSeries.X, edgeSeries.X},
		[][]float64{bsSeries.Y, edgeSeries.Y})
	if err != nil {
		return nil, err
	}
	res.Ascii = ascii
	return res, nil
}
