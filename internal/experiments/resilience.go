package experiments

import (
	"fmt"

	"hybridcap/internal/asciiplot"
	"hybridcap/internal/engine"
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

	type seedOutcome struct {
		lambda            float64
		degraded, dropped int
	}
	// The seed grids fold through the streaming path (engine.Each):
	// outcomes arrive in index order, so the running sums match a
	// materialized slice bit for bit while only the first failure and
	// the accumulators stay alive — no per-seed outcome slice.
	evalAt := func(fc faults.Config) (lambda float64, degraded, dropped int, err error) {
		var firstErr engine.FirstErrAgg[seedOutcome]
		sum := 0.0
		eerr := engine.Each(o.ctx(), o.workers(), o.seeds(), func(s int) (seedOutcome, error) {
			plan, perr := faults.New(fc)
			if perr != nil {
				return seedOutcome{}, engine.ConstructErr(perr)
			}
			nw, tr, berr := build(network.Config{Params: p, Seed: uint64(90 + s), BSPlacement: network.Grid, Faults: plan})
			if berr != nil {
				return seedOutcome{}, engine.ConstructErr(berr)
			}
			ev, serr := scheme.Evaluate(nw, tr)
			if serr != nil {
				return seedOutcome{}, engine.EvaluateErr(serr)
			}
			return seedOutcome{lambda: ev.Lambda, degraded: ev.Degraded, dropped: ev.Dropped}, nil
		}, func(s int, out engine.Outcome[seedOutcome]) {
			firstErr.Cell(s, 0, out)
			sum += out.Value.lambda
			degraded += out.Value.degraded
			dropped += out.Value.dropped
		})
		if firstErr.Err != nil {
			return 0, 0, 0, firstErr.Err
		}
		if eerr != nil {
			return 0, 0, 0, eerr
		}
		return sum / float64(o.seeds()), degraded / o.seeds(), dropped / o.seeds(), nil
	}

	// Reference rates: the healthy scheme-B rate (no plan installed at
	// all) and the pure ad hoc floor.
	healthy, _, _, err := evalAt(faults.Config{Seed: faultSeed})
	if err != nil {
		return nil, err
	}
	var floorErr engine.FirstErrAgg[float64]
	floorSum := 0.0
	ferr := engine.Each(o.ctx(), o.workers(), o.seeds(), func(s int) (float64, error) {
		nw, tr, ierr := instance(p, uint64(90+s), network.Grid)
		if ierr != nil {
			return 0, engine.ConstructErr(ierr)
		}
		ev, eerr := (routing.SchemeA{}).Evaluate(nw, tr)
		if eerr != nil {
			return 0, engine.EvaluateErr(eerr)
		}
		return ev.Lambda, nil
	}, func(s int, out engine.Outcome[float64]) {
		floorErr.Cell(s, 0, out)
		floorSum += out.Value
	})
	if floorErr.Err != nil {
		return nil, floorErr.Err
	}
	if ferr != nil {
		return nil, ferr
	}
	floor := floorSum / float64(o.seeds())
	res.Rows = append(res.Rows,
		fmt.Sprintf("healthy schemeB lambda=%.5g, pure ad hoc floor (schemeA)=%.5g", healthy, floor))

	bsSeries := &measure.Series{Name: "lambda vs BS outage"}
	for _, q := range fractions {
		lambda, degraded, dropped, err := evalAt(faults.Config{Seed: faultSeed, BSOutageFraction: q})
		if err != nil {
			return nil, fmt.Errorf("experiments: E14 BS outage %.2f: %w", q, err)
		}
		bsSeries.Add(q, lambda)
		res.Rows = append(res.Rows, fmt.Sprintf("bs-outage=%.2f lambda=%.5g relative=%.3f degraded=%d dropped=%d",
			q, lambda, lambda/healthy, degraded, dropped))
	}

	edgeSeries := &measure.Series{Name: "lambda vs edge outage"}
	for _, q := range fractions {
		// Edge fractions live in [0, 1); map the BS grid's 1.0 endpoint
		// to a near-total edge outage.
		eq := q
		if eq >= 1 {
			eq = 0.99
		}
		lambda, degraded, dropped, err := evalAt(faults.Config{Seed: faultSeed, EdgeOutageFraction: eq})
		if err != nil {
			return nil, fmt.Errorf("experiments: E14 edge outage %.2f: %w", eq, err)
		}
		edgeSeries.Add(q, lambda)
		res.Rows = append(res.Rows, fmt.Sprintf("edge-outage=%.2f lambda=%.5g relative=%.3f degraded=%d dropped=%d",
			eq, lambda, lambda/healthy, degraded, dropped))
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
