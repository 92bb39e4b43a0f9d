package routing

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"hybridcap/internal/delay"
	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

// The references below are the two baselines' neighborhood passes as
// they were before the bulk spatial scan: every neighbor reported
// through a ForEachWithin closure, distances by geom.Dist. The bulk
// scan must reproduce them bit for bit.

// refNodeServiceRate is nodeServiceRate on a ForEachWithin closure.
func refNodeServiceRate(a *linkcap.Analytic, ix *spatial.Index, homes []geom.Point, i int, rnd interface{ Intn(int) int }) float64 {
	var neighbors []int
	ix.ForEachWithin(homes[i], a.Reach(), func(id int) bool {
		if id != i {
			neighbors = append(neighbors, id)
		}
		return true
	})
	if len(neighbors) == 0 {
		return 0
	}
	const maxProbe = 512
	sum := 0.0
	if len(neighbors) <= maxProbe {
		for _, j := range neighbors {
			sum += a.MSMS(geom.Dist(homes[i], homes[j]))
		}
	} else {
		for s := 0; s < maxProbe; s++ {
			j := neighbors[rnd.Intn(len(neighbors))]
			sum += a.MSMS(geom.Dist(homes[i], homes[j]))
		}
		sum = sum / maxProbe * float64(len(neighbors))
	}
	return math.Min(1, sum)
}

// refNodeLambda is the node-airtime pass both baselines share.
func refNodeLambda(ev *Evaluation, a *linkcap.Analytic, ix *spatial.Index, homes []geom.Point, nodeLoad []float64, rnd interface{ Intn(int) int }) float64 {
	lambdaNodes := math.Inf(1)
	for i := range nodeLoad {
		if nodeLoad[i] == 0 {
			continue
		}
		service := refNodeServiceRate(a, ix, homes, i, rnd)
		if service <= 0 {
			ev.Failures++
			continue
		}
		if r := service / nodeLoad[i]; r < lambdaNodes {
			lambdaNodes = r
		}
	}
	return lambdaNodes
}

// refFinish picks the binding constraint as both baselines do.
func refFinish(ev *Evaluation, lambdaPairs, lambdaNodes float64, what string) (*Evaluation, error) {
	ev.Detail["lambdaPairs"] = lambdaPairs
	ev.Detail["lambdaNodes"] = lambdaNodes
	if math.IsInf(lambdaPairs, 1) && math.IsInf(lambdaNodes, 1) {
		return nil, fmt.Errorf("routing: %s routed no traffic", what)
	}
	if lambdaPairs <= lambdaNodes {
		ev.Lambda = lambdaPairs
		ev.Bottleneck = "pair-capacity"
	} else {
		ev.Lambda = lambdaNodes
		ev.Bottleneck = "node-airtime"
	}
	return finish(ev), nil
}

// refTwoHop is TwoHopRelay.Evaluate with its closure-based relay probe.
func refTwoHop(s TwoHopRelay, nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	maxRelays := s.MaxRelays
	if maxRelays <= 0 {
		maxRelays = 256
	}
	a, err := linkcap.NewAnalytic(nw, s.CT)
	if err != nil {
		return nil, err
	}
	homes := nw.HomePoints()
	ix := spatial.New(homes, a.Reach())
	rnd := rng.New(0x2).Derive("twohop").Rand()
	ev := &Evaluation{Detail: map[string]float64{}}
	nodeLoad := make([]float64, nw.NumMS())
	lambdaPairs := math.Inf(1)
	reach := a.Reach()
	for src, dst := range tr.DestOf {
		hs, hd := homes[src], homes[dst]
		direct := a.MSMS(geom.Dist(hs, hd))
		var relays []int
		ix.ForEachWithin(hs, reach, func(id int) bool {
			if id != src && id != dst && geom.Dist(homes[id], hd) < reach {
				relays = append(relays, id)
			}
			return true
		})
		scale := 1.0
		if len(relays) > maxRelays {
			scale = float64(len(relays)) / float64(maxRelays)
			for i := 0; i < maxRelays; i++ {
				j := i + rnd.Intn(len(relays)-i)
				relays[i], relays[j] = relays[j], relays[i]
			}
			relays = relays[:maxRelays]
		}
		weights := make([]float64, len(relays))
		wsum := 0.0
		for i, r := range relays {
			weights[i] = math.Min(a.MSMS(geom.Dist(hs, homes[r])), a.MSMS(geom.Dist(homes[r], hd))) / 2
			wsum += weights[i]
		}
		pairCap := direct + wsum*scale
		if pairCap <= 0 {
			ev.Failures++
			continue
		}
		if pairCap < lambdaPairs {
			lambdaPairs = pairCap
		}
		total := direct + wsum*scale
		nodeLoad[src]++
		nodeLoad[dst]++
		for i, r := range relays {
			nodeLoad[r] += 2 * (weights[i] * scale / total)
		}
	}
	lambdaNodes := refNodeLambda(ev, a, ix, homes, nodeLoad, rnd)
	return refFinish(ev, lambdaPairs, lambdaNodes, "two-hop relay")
}

// refD2D is D2D.Evaluate with the closure-based node-service pass.
func refD2D(s D2D, nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	a, err := linkcap.NewAnalytic(nw, s.CT)
	if err != nil {
		return nil, err
	}
	homes := nw.HomePoints()
	ix := spatial.New(homes, a.Reach())
	rnd := rng.New(0xD2).Derive("d2d").Rand()
	ev := &Evaluation{Detail: map[string]float64{}}
	nodeLoad := make([]float64, nw.NumMS())
	lambdaPairs := math.Inf(1)
	for src, dst := range tr.DestOf {
		direct := a.MSMS(geom.Dist(homes[src], homes[dst]))
		if direct <= 0 {
			ev.Failures++
			continue
		}
		if direct < lambdaPairs {
			lambdaPairs = direct
		}
		nodeLoad[src]++
		nodeLoad[dst]++
	}
	lambdaNodes := refNodeLambda(ev, a, ix, homes, nodeLoad, rnd)
	return refFinish(ev, lambdaPairs, lambdaNodes, "d2d")
}

// refDelayTwoHop is the two-hop delay model with its closure-based
// neighborhood pass.
func refDelayTwoHop(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (int, error) {
	a, err := linkcap.NewAnalytic(nw, 0)
	if err != nil {
		return 0, err
	}
	homes := nw.HomePoints()
	reach := a.Reach()
	ix := spatial.New(homes, reach)
	rate := make([]float64, len(homes))
	deg := make([]int, len(homes))
	for i := range homes {
		ix.ForEachWithin(homes[i], reach, func(id int) bool {
			if id != i {
				rate[i] += a.MSMS(geom.Dist(homes[i], homes[id]))
				deg[i]++
			}
			return true
		})
	}
	unroutable := 0
	for src, dst := range tr.DestOf {
		if deg[src] == 0 || rate[dst] <= 0 {
			unroutable++
			continue
		}
		w1 := 1 / math.Min(1, rate[src])
		w2 := float64(deg[dst]) / rate[dst]
		if w2 < 1 {
			w2 = 1
		}
		observe(delay.Breakdown{Forwarding: 2, MobilityWait: (w1 - 1) + (w2 - 1)})
	}
	return unroutable, nil
}

// breakdowns runs a delay model and returns every observation.
func breakdowns(t *testing.T, eval func(*network.Network, *traffic.Pattern, func(delay.Breakdown)) (int, error), nw *network.Network, tr *traffic.Pattern) ([]delay.Breakdown, int) {
	t.Helper()
	var out []delay.Breakdown
	unroutable, err := eval(nw, tr, func(b delay.Breakdown) { out = append(out, b) })
	if err != nil {
		t.Fatal(err)
	}
	return out, unroutable
}

func sameBreakdown(got, want delay.Breakdown) bool {
	g := [...]float64{got.SrcQueue, got.MobilityWait, got.Forwarding, got.Uplink, got.Backbone, got.Downlink}
	w := [...]float64{want.SrcQueue, want.MobilityWait, want.Forwarding, want.Uplink, want.Backbone, want.Downlink}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return false
		}
	}
	return true
}

// The bulk neighborhood scan must reproduce the closure-based passes
// bit for bit: where every MS meets every other (alpha = 0.04, reach
// past the torus diameter) with node service both summed in full (at
// most 512 neighbors) and sampled, under partial reach, and with
// clustered home-points, for both relay caps.
func TestNeighborPassesMatchReference(t *testing.T) {
	points := []scaling.Params{
		{N: 256, Alpha: 0.04, K: -1, M: 1},
		{N: 1024, Alpha: 0.04, K: -1, M: 1},
		{N: 600, Alpha: 0.15, K: -1, M: 1},
		{N: 1024, Alpha: 0.3, K: -1, M: 1},
		{N: 1024, Alpha: 0.45, K: 0.7, M: 0.6, R: 0.35},
	}
	placements := []network.BSPlacement{network.Grid, network.Uniform}
	bottlenecks := map[string]int{}
	for pi, p := range points {
		for _, bs := range placements {
			for _, seed := range []uint64{1, 7} {
				if p.K < 0 && bs == network.Uniform {
					continue // no BSs to place
				}
				nw, tr := buildNetPlaced(t, p, seed, bs)
				name := fmt.Sprintf("p%d/%v/seed=%d", pi, bs, seed)
				cases := []struct {
					what      string
					got, want func() (*Evaluation, error)
				}{
					{"twoHop", func() (*Evaluation, error) { return TwoHopRelay{}.Evaluate(nw, tr) },
						func() (*Evaluation, error) { return refTwoHop(TwoHopRelay{}, nw, tr) }},
					{"twoHop/max8", func() (*Evaluation, error) { return TwoHopRelay{MaxRelays: 8}.Evaluate(nw, tr) },
						func() (*Evaluation, error) { return refTwoHop(TwoHopRelay{MaxRelays: 8}, nw, tr) }},
					{"d2d", func() (*Evaluation, error) { return D2D{}.Evaluate(nw, tr) },
						func() (*Evaluation, error) { return refD2D(D2D{}, nw, tr) }},
					// A small S* range keeps node service below its cap
					// of 1, so its sums and draws reach lambdaNodes.
					{"twoHop/ct0.1", func() (*Evaluation, error) { return TwoHopRelay{CT: 0.1}.Evaluate(nw, tr) },
						func() (*Evaluation, error) { return refTwoHop(TwoHopRelay{CT: 0.1}, nw, tr) }},
					{"d2d/ct0.1", func() (*Evaluation, error) { return D2D{CT: 0.1}.Evaluate(nw, tr) },
						func() (*Evaluation, error) { return refD2D(D2D{CT: 0.1}, nw, tr) }},
				}
				for _, c := range cases {
					want, werr := c.want()
					got, gerr := c.got()
					if (werr != nil) != (gerr != nil) {
						t.Fatalf("%s/%s: err = %v, want %v", name, c.what, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if err := sameEvaluation(got, want); err != nil {
						t.Errorf("%s/%s: %v", name, c.what, err)
					}
					bottlenecks[want.Bottleneck]++
				}

				want, wantUnroutable := breakdowns(t, refDelayTwoHop, nw, tr)
				got, gotUnroutable := breakdowns(t, delayTwoHop{}.EvaluateDelay, nw, tr)
				if gotUnroutable != wantUnroutable || len(got) != len(want) {
					t.Fatalf("%s/delay: %d observations, %d unroutable; want %d, %d",
						name, len(got), gotUnroutable, len(want), wantUnroutable)
				}
				for i := range want {
					if !sameBreakdown(got[i], want[i]) {
						t.Fatalf("%s/delay: observation %d = %+v, want %+v", name, i, got[i], want[i])
					}
				}
			}
		}
	}
	for _, b := range []string{"pair-capacity", "node-airtime"} {
		if bottlenecks[b] == 0 {
			t.Errorf("no case binds on %q (bottlenecks: %v)", b, bottlenecks)
		}
	}
}

// In the complete-graph regime the neighborhood passes must not grow a
// neighbor list per node: one evaluation at n=2048 allocated 117 MiB
// that way.
func TestBaselineAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n=2048 network")
	}
	nw, tr := buildNetPlaced(t, scaling.Params{N: 2048, Alpha: 0.04, K: -1, M: 1}, 1, network.Grid)
	for _, s := range []Scheme{D2D{}, TwoHopRelay{}} {
		if _, err := s.Evaluate(nw, tr); err != nil { // warm shared caches
			t.Fatal(err)
		}
		const runs = 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := s.Evaluate(nw, tr); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perEval := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if limit := 1.0 * (1 << 20); perEval >= limit {
			t.Errorf("%s.Evaluate allocates %.0f bytes, want < %.0f", s.Name(), perEval, limit)
		}
	}
}

// neighborhoods must hand out, for every node, exactly the ids its own
// reach query reports, and the node's position in them: from the one
// shared list where the reach covers the torus, and per query below it.
func TestNeighborhoodsMatchQueries(t *testing.T) {
	for _, p := range []scaling.Params{
		{N: 300, Alpha: 0.04, K: -1, M: 1},
		{N: 300, Alpha: 0.3, K: -1, M: 1},
	} {
		nw, _ := buildNetPlaced(t, p, 3, network.Grid)
		a, err := linkcap.NewAnalytic(nw, 0)
		if err != nil {
			t.Fatal(err)
		}
		homes, reach := nw.HomePoints(), a.Reach()
		ix := spatial.New(homes, reach)
		nb := newNeighborhoods(homes, reach)
		if want := reach > geom.MaxDist; nb.complete() != want {
			t.Fatalf("alpha=%v reach=%v: complete() = %v, want %v", p.Alpha, reach, nb.complete(), want)
		}
		for i := range homes {
			want := ix.AppendWithin(nil, homes[i], reach)
			got, pos := nb.of(i)
			if !slices.Equal(got, want) {
				t.Fatalf("alpha=%v node %d: neighborhood differs from its query", p.Alpha, i)
			}
			if pos < 0 || got[pos] != int32(i) {
				t.Fatalf("alpha=%v node %d: position %d does not hold the node", p.Alpha, i, pos)
			}
		}
	}
}
