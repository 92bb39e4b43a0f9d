package experiments

import (
	"fmt"

	"hybridcap/internal/asciiplot"
	"hybridcap/internal/measure"
	"hybridcap/internal/mobility"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/sim"
	"hybridcap/internal/traffic"
)

// DelayThroughput (E11) extends the evaluation beyond the paper's
// capacity focus: packet-level runs of the two transport styles in the
// same dense network. Two-hop relay buys its Theta(1) throughput with
// Theta(n)-scale delay (a relay must meet the specific destination);
// squarelet multi-hop pays more transmissions per packet but delivers
// orders of magnitude faster — the delay-capacity trade-off the paper
// cites from the literature ([11], [12]).
func DelayThroughput(o Options) (*Result, error) {
	n := 512
	slots := 20000
	if o.Quick {
		n = 256
		slots = 6000
	}
	p := scaling.Params{N: n, Alpha: 0.15, K: -1, M: 1}
	res := &Result{
		ID:          "E11",
		Description: "delay-throughput trade-off: two-hop relay vs squarelet multi-hop",
		XName:       "scheme",
	}
	lambda := 0.002

	nw1, tr, err := build(network.Config{Params: p, Seed: 41})
	if err != nil {
		return nil, err
	}
	twoHop, err := sim.RunTwoHop(nw1, tr, sim.PacketConfig{Lambda: lambda, Slots: slots, Seed: 41})
	if err != nil {
		return nil, err
	}
	nw2, _, err := build(network.Config{Params: p, Seed: 41})
	if err != nil {
		return nil, err
	}
	multi, err := sim.RunMultihop(nw2, tr, sim.MultihopConfig{Lambda: lambda, Slots: slots, Seed: 41})
	if err != nil {
		return nil, err
	}
	// The same population with infrastructure: constant-ish delay.
	pBS := p
	pBS.K = 0.8
	pBS.Phi = 1
	nw3, _, err := build(network.Config{Params: pBS, Seed: 41, BSPlacement: network.Grid})
	if err != nil {
		return nil, err
	}
	infra, err := sim.RunInfrastructure(nw3, tr, sim.InfraConfig{Lambda: lambda, Slots: slots, Seed: 41})
	if err != nil {
		return nil, err
	}

	delay := &measure.Series{Name: "meanDelay"}
	rate := &measure.Series{Name: "deliveredRate"}
	delay.Add(1, twoHop.MeanDelay)
	delay.Add(2, multi.MeanDelay)
	delay.Add(3, infra.MeanDelay)
	rate.Add(1, twoHop.DeliveredRate)
	rate.Add(2, multi.DeliveredRate)
	rate.Add(3, infra.DeliveredRate)
	res.Series = append(res.Series, delay, rate)
	res.Rows = append(res.Rows,
		fmt.Sprintf("injection rate %.4g packets/node/slot over %d slots, n=%d", lambda, slots, n),
		fmt.Sprintf("two-hop relay:      delivered %.5g /node/slot, mean delay %8.1f slots, backlog %.2f",
			twoHop.DeliveredRate, twoHop.MeanDelay, twoHop.BacklogPerNode),
		fmt.Sprintf("squarelet multihop: delivered %.5g /node/slot, mean delay %8.1f slots (%.1f hops), backlog %.2f",
			multi.DeliveredRate, multi.MeanDelay, multi.MeanHops, multi.BacklogPerNode),
		fmt.Sprintf("infrastructure:     delivered %.5g /node/slot, mean delay %8.1f slots, backlog %.2f",
			infra.DeliveredRate, infra.MeanDelay, infra.BacklogPerNode),
	)
	if twoHop.MeanDelay > 0 && multi.MeanDelay > 0 {
		res.Rows = append(res.Rows, fmt.Sprintf("delay ratio two-hop/multihop = %.1fx", twoHop.MeanDelay/multi.MeanDelay))
	}
	return res, nil
}

// BSOutage (E12) probes robustness beyond the paper: failing a random
// fraction q of base stations leaves k' = (1-q)k survivors, so scheme
// B's access-limited rate should degrade linearly in the surviving
// fraction — infrastructure capacity degrades gracefully, with no
// cliff, until the backbone term takes over.
func BSOutage(o Options) (*Result, error) {
	n := 8192
	if o.Quick {
		n = 2048
	}
	p := scaling.Params{N: n, Alpha: 0.25, K: 0.7, Phi: 1, M: 1}
	res := &Result{
		ID:          "E12",
		Description: "BS outage: scheme B rate vs surviving-BS fraction",
		XName:       "survivingFraction",
	}
	series := &measure.Series{Name: "lambda(schemeB)"}
	outages := []float64{0, 0.25, 0.5, 0.75, 0.9}
	vals, err := strictGrid(o, "grid E12 outages", len(outages), o.seeds(), nil,
		func(point, seed int) (float64, error) {
			return cellStep(network.Config{Params: p, Seed: uint64(50 + seed), BSPlacement: network.Grid}, nil,
				func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
					if err := nw.RemoveBS(outages[point], uint64(60+seed)); err != nil {
						return 0, err
					}
					return lambdaOf(routing.SchemeB{})(nw, tr)
				})
		})
	if err != nil {
		return nil, err
	}
	means := pointMeans(vals, o.seeds())
	var baseline float64
	for i, outage := range outages {
		mean := means[i]
		if outage == 0 {
			baseline = mean
		}
		surviving := 1 - outage
		series.Add(surviving, mean)
		res.Rows = append(res.Rows, fmt.Sprintf("outage=%.2f surviving=%.2f lambda=%.5g relative=%.3f",
			outage, surviving, mean, mean/baseline))
	}
	res.Series = append(res.Series, series)
	res.Rows = append(res.Rows, "theory: access-limited rate ~ surviving k, i.e. relative ~ surviving fraction")
	chart := asciiplot.LineChart{Title: "lambda vs surviving BS fraction"}
	ascii, err := chart.Render([]string{series.Name}, [][]float64{series.X}, [][]float64{series.Y})
	if err != nil {
		return nil, err
	}
	res.Ascii = ascii
	return res, nil
}

// KernelInvariance (E13) validates the generality of Definition 2: the
// capacity depends on the kernel s(d) only through its support scale
// (Lemma 2 uses just the stationary law), so swapping uniform-disk,
// cone, truncated-Gaussian and power-law kernels changes scheme A's
// rate by constants only.
func KernelInvariance(o Options) (*Result, error) {
	n := 4096
	if o.Quick {
		n = 1024
	}
	p := scaling.Params{N: n, Alpha: 0.3, K: -1, M: 1}
	res := &Result{
		ID:          "E13",
		Description: "kernel invariance: scheme A rate across mobility kernels",
		XName:       "kernel",
	}
	kernels := []mobility.Kernel{
		mobility.UniformDisk{D: 1},
		mobility.Cone{D: 1},
		mobility.TruncGauss{Sigma: 0.4, D: 1},
		mobility.PowerLaw{D0: 0.3, Beta: 2, D: 1},
	}
	evs, err := strictGrid(o, "grid E13 kernels", len(kernels), 1, nil, func(i, _ int) (*routing.Evaluation, error) {
		return cellStep(network.Config{Params: p, Seed: 71, Kernel: kernels[i]}, nil, routing.SchemeA{}.Evaluate)
	})
	if err != nil {
		return nil, err
	}
	series := &measure.Series{Name: "lambda(schemeA)"}
	var min, max float64
	for i, k := range kernels {
		ev := evs[i]
		series.Add(float64(i+1), ev.Lambda)
		if i == 0 || ev.Lambda < min {
			min = ev.Lambda
		}
		if ev.Lambda > max {
			max = ev.Lambda
		}
		res.Rows = append(res.Rows, fmt.Sprintf("%-28s lambda=%.5g failures=%d", k.Name(), ev.Lambda, ev.Failures))
	}
	res.Series = append(res.Series, series)
	res.Rows = append(res.Rows, fmt.Sprintf("max/min across kernels = %.2f (theory: Theta(1))", max/min))
	return res, nil
}
