// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices called out in DESIGN.md. Each
// benchmark runs the corresponding experiment and reports the headline
// quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The benchmarks use quick sweeps; run
// `go run ./cmd/figures -run all` for the full-size versions.
package hybridcap_test

import (
	"fmt"
	"math"
	"testing"

	"hybridcap"
	"hybridcap/internal/delay"
	"hybridcap/internal/experiments"
	"hybridcap/internal/faults"
	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scheduler"
	"hybridcap/internal/sim"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seeds: 1}
}

// runExperiment runs one registered experiment b.N times and reports a
// named fit or series metric.
func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = hybridcap.RunExperiment(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1 regenerates Table I (all five regime rows) and
// reports the fitted capacity exponent of each row.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	res := runExperiment(b, "T1")
	for name, fit := range res.Fits {
		b.ReportMetric(fit.Exponent, "exp:"+name)
	}
}

// BenchmarkFigure1 regenerates Figure 1 (density contrast of
// non-uniformly vs uniformly dense networks).
func BenchmarkFigure1(b *testing.B) {
	res := runExperiment(b, "F1")
	if len(res.Series) > 0 {
		b.ReportMetric(float64(res.Series[0].Len()), "cells")
	}
}

// BenchmarkFigure2 regenerates Figure 2 (scheme B phase walkthrough).
func BenchmarkFigure2(b *testing.B) {
	res := runExperiment(b, "F2")
	if len(res.Series) > 0 && res.Series[0].Len() > 1 {
		b.ReportMetric(res.Series[0].Y[0], "lambdaAccess")
		b.ReportMetric(res.Series[0].Y[1], "lambdaBackbone")
	}
}

// BenchmarkFigure3 regenerates both panels of Figure 3 (capacity
// exponent over the (alpha, K) plane for phi >= 0 and phi = -1/2).
func BenchmarkFigure3(b *testing.B) {
	left := runExperiment(b, "F3L")
	right := runExperiment(b, "F3R")
	b.ReportMetric(left.Series[0].Y[0], "leftBoundaryK(alpha=0)")
	b.ReportMetric(right.Series[0].Y[0], "rightBoundaryK(alpha=0)")
}

// BenchmarkUniformDensity regenerates E1 (Theorem 1 density contrast).
func BenchmarkUniformDensity(b *testing.B) {
	res := runExperiment(b, "E1")
	s := res.Series[0]
	b.ReportMetric(s.Y[0], "ratioStrongest")
	b.ReportMetric(s.Y[s.Len()-1], "ratioWeakest")
}

// BenchmarkOptimalRT regenerates E2 (Theorem 2: throughput peak at
// RT = Theta(1/sqrt(n))).
func BenchmarkOptimalRT(b *testing.B) {
	res := runExperiment(b, "E2")
	s := res.Series[0]
	bestX, bestY := 0.0, 0.0
	for i := range s.X {
		if s.Y[i] > bestY {
			bestX, bestY = s.X[i], s.Y[i]
		}
	}
	b.ReportMetric(bestX, "peakRTxSqrtN")
	b.ReportMetric(bestY, "peakPairsPerSlot")
}

// BenchmarkNoBSCapacity regenerates E3 (Theorem 3: Theta(1/f) without
// BSs, with the cut bound).
func BenchmarkNoBSCapacity(b *testing.B) {
	res := runExperiment(b, "E3")
	b.ReportMetric(res.Fits["schemeA"].Exponent, "exponent")
}

// BenchmarkDominanceCrossover regenerates E4 (Remark 10 crossover).
func BenchmarkDominanceCrossover(b *testing.B) {
	res := runExperiment(b, "E4")
	s := res.Series[0]
	b.ReportMetric(s.Y[0], "lambdaLowK")
	b.ReportMetric(s.Y[s.Len()-1], "lambdaHighK")
}

// BenchmarkPlacementInvariance regenerates E5 (Theorem 6).
func BenchmarkPlacementInvariance(b *testing.B) {
	res := runExperiment(b, "E5")
	s := res.Series[0]
	min, max := math.Inf(1), 0.0
	for _, v := range s.Y {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	b.ReportMetric(max/min, "maxMinRatio")
}

// BenchmarkClusterIsolation regenerates E6 (Lemma 12).
func BenchmarkClusterIsolation(b *testing.B) {
	res := runExperiment(b, "E6")
	s := res.Series[0]
	b.ReportMetric(s.Y[s.Len()-1], "closeFractionAtLargestN")
}

// BenchmarkTrivialMobility regenerates E7 (Theorem 8 link persistence).
func BenchmarkTrivialMobility(b *testing.B) {
	res := runExperiment(b, "E7")
	s := res.Series[0]
	b.ReportMetric(s.Y[0], "persistenceStrongest")
	b.ReportMetric(s.Y[s.Len()-1], "persistenceWeakest")
}

// BenchmarkWeakNoBS regenerates E8 (Corollary 3).
func BenchmarkWeakNoBS(b *testing.B) {
	res := runExperiment(b, "E8")
	b.ReportMetric(res.Fits["gridMultihop"].Exponent, "exponent")
}

// BenchmarkOptimalPhi regenerates E9 (backbone saturation at phi = 0).
func BenchmarkOptimalPhi(b *testing.B) {
	res := runExperiment(b, "E9")
	s := res.Series[0]
	b.ReportMetric(s.Y[0], "lambdaPhiMin")
	b.ReportMetric(s.Y[s.Len()-1], "lambdaPhiMax")
}

// BenchmarkAccessRate regenerates E10 (Lemma 9: mu^A = Theta(k/n)).
func BenchmarkAccessRate(b *testing.B) {
	res := runExperiment(b, "E10")
	s := res.Series[0]
	b.ReportMetric(s.Y[0], "ratioLowK")
	b.ReportMetric(s.Y[s.Len()-1], "ratioHighK")
}

// Ablation benchmarks: design choices DESIGN.md calls out.

// BenchmarkAblationGuardZone compares policy S* (strict guard against
// all nodes, Definition 10) with greedy maximal protocol-model
// scheduling: Theorem 2 argues the strictness costs only a constant
// factor.
func BenchmarkAblationGuardZone(b *testing.B) {
	p := scaling.Params{N: 2048, Alpha: 0, K: -1, M: 1}
	var ratio float64
	for i := 0; i < b.N; i++ {
		nwStar, err := network.New(network.Config{Params: p, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		star, err := sim.MeasureContacts(nwStar, sim.ContactConfig{Slots: 10, Delta: -1})
		if err != nil {
			b.Fatal(err)
		}
		nwGreedy, err := network.New(network.Config{Params: p, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		greedy, err := sim.MeasureContacts(nwGreedy, sim.ContactConfig{Slots: 10, Delta: -1, Greedy: true})
		if err != nil {
			b.Fatal(err)
		}
		ratio = greedy.PairsPerSlot / star.PairsPerSlot
	}
	b.ReportMetric(ratio, "greedyOverSStar")
}

// BenchmarkAblationLinkCap compares the analytic link capacity
// (Corollary 1) against the Monte-Carlo meeting probability (Lemma 2's
// definition) at several home-point separations.
func BenchmarkAblationLinkCap(b *testing.B) {
	p := scaling.Params{N: 1024, Alpha: 0.25, K: -1, M: 1}
	nw, err := network.New(network.Config{Params: p, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	a, err := linkcap.NewAnalytic(nw, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(6).Rand()
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		h1 := geom.Point{X: 0.5, Y: 0.5}
		for _, sep := range []float64{0, 0.5, 1.2} {
			d := sep / nw.F()
			mc := linkcap.MeetingProbability(h1, geom.Add(h1, d, 0), nw.Sampler, nw.F(), a.RT(), 200000, r)
			an := a.MSMS(d)
			if an > 0 {
				rel := math.Abs(mc-an) / an
				worst = math.Max(worst, rel)
			}
		}
	}
	b.ReportMetric(worst, "worstRelErr")
}

// BenchmarkSchemeA times one scheme A evaluation at the Table I point
// (n=16384, alpha=0.3, no BSs) whose CPU profile guides its routing
// cost work; the network is built outside the timed loop.
func BenchmarkSchemeA(b *testing.B) {
	p := scaling.Params{N: 16384, Alpha: 0.3, K: -1, M: 1}
	nw, err := network.New(network.Config{Params: p, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := traffic.NewPermutation(p.N, rng.New(1).Derive("traffic").Rand())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ev *routing.Evaluation
	for i := 0; i < b.N; i++ {
		if ev, err = (routing.SchemeA{}).Evaluate(nw, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ev.Lambda, "lambda")
}

// BenchmarkPacketSim times one run of each packet simulator at
// perfbench's packet-sim point (n=256, lambda 0.002, 3000 slots, seed
// 1), so a CPU profile covers every consumer of the slot driver:
// two-hop relaying and scheme-A multihop on the ad hoc population,
// infrastructure on grid-placed BSs, and infrastructure with
// association dynamics under a 30% BS outage from mid-run. Each run
// gets a freshly built network, outside the timer.
func BenchmarkPacketSim(b *testing.B) {
	const slots = 3000
	adhoc := scaling.Params{N: 256, Alpha: 0.15, K: -1, M: 1}
	infra := adhoc
	infra.K, infra.Phi = 0.8, 1
	tr, err := traffic.NewPermutation(adhoc.N, rng.New(1).Derive("traffic").Rand())
	if err != nil {
		b.Fatal(err)
	}
	outage, err := faults.New(faults.Config{Seed: 1, BSOutageFraction: 0.3, BSOutageStart: slots / 2})
	if err != nil {
		b.Fatal(err)
	}
	assoc := &delay.AssocConfig{HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8}
	for _, c := range []struct {
		name string
		cfg  network.Config
		run  func(*network.Network) (*sim.PacketReport, error)
	}{
		{"twoHop", network.Config{Params: adhoc, Seed: 1}, func(nw *network.Network) (*sim.PacketReport, error) {
			return sim.RunTwoHop(nw, tr, sim.PacketConfig{Lambda: 0.002, Slots: slots, Seed: 1})
		}},
		{"multihop", network.Config{Params: adhoc, Seed: 1}, func(nw *network.Network) (*sim.PacketReport, error) {
			r, err := sim.RunMultihop(nw, tr, sim.MultihopConfig{Lambda: 0.002, Slots: slots, Seed: 1})
			if err != nil {
				return nil, err
			}
			return &r.PacketReport, nil
		}},
		{"infra", network.Config{Params: infra, Seed: 1, BSPlacement: network.Grid}, func(nw *network.Network) (*sim.PacketReport, error) {
			r, err := sim.RunInfrastructure(nw, tr, sim.InfraConfig{Lambda: 0.002, Slots: slots, Seed: 1})
			if err != nil {
				return nil, err
			}
			return &r.PacketReport, nil
		}},
		{"infraAssoc", network.Config{Params: infra, Seed: 1, BSPlacement: network.Grid, Faults: outage}, func(nw *network.Network) (*sim.PacketReport, error) {
			r, err := sim.RunInfrastructure(nw, tr, sim.InfraConfig{Lambda: 0.002, Slots: slots, Seed: 1, Assoc: assoc})
			if err != nil {
				return nil, err
			}
			return &r.PacketReport, nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var rep *sim.PacketReport
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw, err := network.New(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if rep, err = c.run(nw); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.DeliveredRate, "deliveredRate")
		})
	}
}

// BenchmarkSStar times one S* scheduling pass, SStarPairsInto over an
// index of the MS positions, at packet-sim's point (n=256, RT =
// DefaultSimCT/sqrt(n)) and at n=4096, for the sims' zero-value guard
// factor (Delta 0) and the default (Delta 1). Like the slot loop, each
// pass sees fresh positions: it cycles through the indexes of
// sstarSlots consecutive mobility slots, built and warmed outside the
// timer, so the branch predictor cannot learn one slot's layout and a
// pass should allocate nothing.
func BenchmarkSStar(b *testing.B) {
	const sstarSlots = 64
	for _, n := range []int{256, 4096} {
		p := scaling.Params{N: n, Alpha: 0.15, K: -1, M: 1}
		nw, err := network.New(network.Config{Params: p, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		slots := make([][]geom.Point, sstarSlots)
		for t := range slots {
			nw.Step()
			slots[t] = nw.MSPositions(nil)
		}
		for _, delta := range []float64{0, 1} {
			b.Run(fmt.Sprintf("n=%d/delta=%g", n, delta), func(b *testing.B) {
				m := interference.NewModel(sim.DefaultSimCT/math.Sqrt(float64(n)), delta)
				ixs := make([]*spatial.Index, len(slots))
				var pairs []interference.Transmission
				for t, pos := range slots {
					ixs[t] = spatial.New(pos, m.GuardRadius())
					pairs = scheduler.SStarPairsInto(m, ixs[t], pairs)
				}
				total := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pairs = scheduler.SStarPairsInto(m, ixs[i%len(ixs)], pairs)
					total += len(pairs)
				}
				b.ReportMetric(float64(total)/float64(b.N), "pairs")
			})
		}
	}
}

// BenchmarkMobilityStep times the mobility stage of one slot, Step and
// MSPositions, at packet-sim's point (n=256, alpha 0.15, no BSs, i.i.d.
// mobility): what the slot driver's mobility goroutine does per slot.
func BenchmarkMobilityStep(b *testing.B) {
	p := scaling.Params{N: 256, Alpha: 0.15, K: -1, M: 1}
	nw, err := network.New(network.Config{Params: p, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pos := nw.MSPositions(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
		pos = nw.MSPositions(pos)
	}
}

// BenchmarkTwoHopBaselines times the two-hop relay and D2D evaluations
// and the two-hop delay model at n=4096, alpha=0.04 without BSs: the
// complete-graph regime of the d2d-baseline scenario, where the
// meeting reach exceeds the torus diameter and every MS neighbors
// every other. delay/schemeB times scheme B's delay model at the
// handover-churn scenario's largest point: n=4096, alpha=0.15, K=0.8,
// phi=1, grid BSs, a 30% outage from mid-run and the scenario's
// association model. Networks are built outside the timed loops.
func BenchmarkTwoHopBaselines(b *testing.B) {
	p := scaling.Params{N: 4096, Alpha: 0.04, K: -1, M: 1}
	nw, err := network.New(network.Config{Params: p, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := traffic.NewPermutation(p.N, rng.New(1).Derive("traffic").Rand())
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []routing.Scheme{routing.TwoHopRelay{}, routing.D2D{}} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var ev *routing.Evaluation
			for i := 0; i < b.N; i++ {
				if ev, err = s.Evaluate(nw, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ev.Lambda, "lambda")
		})
	}
	m, err := routing.DelayModelByName(routing.NameTwoHop, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("delay/"+m.Name(), func(b *testing.B) {
		b.ReportAllocs()
		sum, count := 0.0, 0
		observe := func(d delay.Breakdown) { sum, count = sum+d.Total(), count+1 }
		for i := 0; i < b.N; i++ {
			if _, err := m.EvaluateDelay(nw, tr, observe); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sum/float64(count), "meanDelay")
	})
	b.Run("delay/"+routing.NameSchemeB, func(b *testing.B) {
		p := scaling.Params{N: 4096, Alpha: 0.15, K: 0.8, Phi: 1, M: 1}
		plan, err := faults.New(faults.Config{Seed: 7, BSOutageFraction: 0.3, BSOutageStart: 6000})
		if err != nil {
			b.Fatal(err)
		}
		nw, err := network.New(network.Config{Params: p, Seed: 1, BSPlacement: network.Grid, Faults: plan})
		if err != nil {
			b.Fatal(err)
		}
		assoc := &delay.AssocConfig{HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8}
		m, err := routing.DelayModelByName(routing.NameSchemeB, p, assoc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		sum, count := 0.0, 0
		observe := func(d delay.Breakdown) { sum, count = sum+d.Total(), count+1 }
		for i := 0; i < b.N; i++ {
			if _, err := m.EvaluateDelay(nw, tr, observe); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sum/float64(count), "meanDelay")
	})
}

// BenchmarkAblationSquarelet compares scheme B with 2x2 vs 4x4
// constant-area squarelets (Definition 12 allows any constant).
func BenchmarkAblationSquarelet(b *testing.B) {
	p := scaling.Params{N: 4096, Alpha: 0.25, K: 0.7, Phi: 1, M: 1}
	var r2, r4 float64
	for i := 0; i < b.N; i++ {
		nw, err := network.New(network.Config{Params: p, Seed: 7, BSPlacement: network.Grid})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := traffic.NewPermutation(p.N, rng.New(7).Derive("traffic").Rand())
		if err != nil {
			b.Fatal(err)
		}
		ev2, err := (routing.SchemeB{Cells: 2}).Evaluate(nw, tr)
		if err != nil {
			b.Fatal(err)
		}
		ev4, err := (routing.SchemeB{Cells: 4}).Evaluate(nw, tr)
		if err != nil {
			b.Fatal(err)
		}
		r2, r4 = ev2.Lambda, ev4.Lambda
	}
	b.ReportMetric(r2, "lambdaCells2")
	b.ReportMetric(r4, "lambdaCells4")
}

// BenchmarkAblationMobilityProcess compares the i.i.d. and
// Metropolis-walk mobility processes: Lemma 2 says link capacity
// depends only on the stationary distribution, so long-run contact
// rates must agree.
func BenchmarkAblationMobilityProcess(b *testing.B) {
	p := scaling.Params{N: 1024, Alpha: 0.2, K: -1, M: 1}
	var iid, walk float64
	for i := 0; i < b.N; i++ {
		nwIID, err := network.New(network.Config{Params: p, Seed: 8, Mobility: network.IID})
		if err != nil {
			b.Fatal(err)
		}
		repIID, err := sim.MeasureContacts(nwIID, sim.ContactConfig{Slots: 30, Delta: -1})
		if err != nil {
			b.Fatal(err)
		}
		nwWalk, err := network.New(network.Config{Params: p, Seed: 8, Mobility: network.Walk})
		if err != nil {
			b.Fatal(err)
		}
		repWalk, err := sim.MeasureContacts(nwWalk, sim.ContactConfig{Slots: 30, Warmup: 30, Delta: -1})
		if err != nil {
			b.Fatal(err)
		}
		iid, walk = repIID.PairsPerSlot, repWalk.PairsPerSlot
	}
	b.ReportMetric(iid, "iidPairsPerSlot")
	b.ReportMetric(walk, "walkPairsPerSlot")
}

// BenchmarkDelayThroughput regenerates E11 (two-hop vs multi-hop
// delay-capacity trade-off).
func BenchmarkDelayThroughput(b *testing.B) {
	res := runExperiment(b, "E11")
	delay := res.Series[0]
	b.ReportMetric(delay.Y[0], "twoHopDelay")
	b.ReportMetric(delay.Y[1], "multihopDelay")
}

// BenchmarkBSOutage regenerates E12 (graceful degradation of the
// infrastructure term under BS failures).
func BenchmarkBSOutage(b *testing.B) {
	res := runExperiment(b, "E12")
	s := res.Series[0]
	b.ReportMetric(s.Y[0], "lambdaAllBS")
	b.ReportMetric(s.Y[s.Len()-1], "lambda10pctBS")
}

// BenchmarkKernelInvariance regenerates E13 (capacity insensitivity to
// the mobility kernel shape).
func BenchmarkKernelInvariance(b *testing.B) {
	res := runExperiment(b, "E13")
	s := res.Series[0]
	min, max := math.Inf(1), 0.0
	for _, v := range s.Y {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	b.ReportMetric(max/min, "kernelMaxMinRatio")
}
