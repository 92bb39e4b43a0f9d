package routing

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"hybridcap/internal/delay"
	"hybridcap/internal/faults"
	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/mobility"
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

// checkNodeService compares nodeServiceRate with refNodeServiceRate on
// every node of nw in turn, each drawing from its own copy of one
// stream, so a node that takes a different number of draws shows in
// the nodes after it. It returns how many sampled nodes (more than 512
// neighbors) the cap bound and how many it did not.
func checkNodeService(t *testing.T, name string, nw *network.Network, ct float64) (capped, below int) {
	t.Helper()
	a, err := linkcap.NewAnalytic(nw, ct)
	if err != nil {
		t.Fatal(err)
	}
	homes, reach := nw.HomePoints(), a.Reach()
	ix := spatial.New(homes, reach)
	nb := newNeighborhoods(homes, reach)
	floor := a.MSMSFloor(math.Min(reach, geom.MaxDist))
	rndGot, rndWant := rng.New(5).Rand(), rng.New(5).Rand()
	for i := range homes {
		nbrs, p := nb.of(i)
		got := nodeServiceRate(a, homes, i, nbrs, p, floor, rndGot)
		want := refNodeServiceRate(a, ix, homes, i, rndWant)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s ct=%v: node %d service = %v, want %v", name, ct, i, got, want)
		}
		if len(nbrs)-1 > 512 {
			if want == 1 {
				capped++
			} else {
				below++
			}
		}
	}
	return capped, below
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

// refDelaySchemeB is scheme B's delay model with the access sum over
// every live BS and the nearest BS found by a scan of every BS, least
// geom.Dist2 first and the least id among ties.
func refDelaySchemeB(groupBy GroupBy, assoc *delay.AssocConfig) func(*network.Network, *traffic.Pattern, func(delay.Breakdown)) (int, error) {
	return func(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (int, error) {
		livePos, _ := nw.LiveBSPositions()
		a, err := linkcap.NewAnalytic(nw, 0)
		if err != nil {
			return 0, err
		}
		rt := defaultAccessRT(nw, groupBy, a)
		homes := nw.HomePoints()
		wait := make([]float64, len(homes))
		for i, h := range homes {
			sum := 0.0
			for _, y := range livePos {
				sum += a.MSBSAt(geom.Dist(h, y), rt)
			}
			wait[i] = -1
			if sum > 0 {
				wait[i] = 1 / math.Min(1, sum)
			}
		}
		var penalties []float64
		if assoc != nil && nw.Faults() != nil && nw.NumLiveBS() < nw.NumBS() && assoc.ReassocPenalty() > 0 {
			penalties = make([]float64, len(homes))
			for i, h := range homes {
				best, bestD := -1, math.Inf(1)
				for j, y := range nw.BSPos {
					if d2 := geom.Dist2(h, y); d2 < bestD {
						best, bestD = j, d2
					}
				}
				if !nw.BSIsLive(best) {
					penalties[i] = assoc.ReassocPenalty()
				}
			}
		}
		unroutable := 0
		for src, dst := range tr.DestOf {
			if wait[src] < 0 || wait[dst] < 0 {
				unroutable++
				continue
			}
			b := delay.Breakdown{Uplink: wait[src], Backbone: backboneTransit(nw), Downlink: wait[dst]}
			if penalties != nil {
				b.Downlink += penalties[dst]
			}
			observe(b)
		}
		return unroutable, nil
	}
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

// sameBreakdowns fails t unless two delay runs observed the same
// breakdowns, bit for bit, and the same unroutable count.
func sameBreakdowns(t *testing.T, name string, got []delay.Breakdown, gotUnroutable int, want []delay.Breakdown, wantUnroutable int) {
	t.Helper()
	if gotUnroutable != wantUnroutable || len(got) != len(want) {
		t.Fatalf("%s: %d observations, %d unroutable; want %d, %d",
			name, len(got), gotUnroutable, len(want), wantUnroutable)
	}
	for i := range want {
		if !sameBreakdown(got[i], want[i]) {
			t.Fatalf("%s: observation %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
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
	mixed := 0
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

				// Node service node by node, at S* constants where the
				// cap binds everywhere, nowhere and (0.6 at p2, 0.915 at
				// p1) on some sampled nodes only.
				for _, ct := range []float64{0, 0.1, 0.6, 0.915} {
					if capped, below := checkNodeService(t, name, nw, ct); capped > 0 && below > 0 {
						mixed++
					}
				}

				want, wantUnroutable := breakdowns(t, refDelayTwoHop, nw, tr)
				got, gotUnroutable := breakdowns(t, delayTwoHop{}.EvaluateDelay, nw, tr)
				sameBreakdowns(t, name+"/delay", got, gotUnroutable, want, wantUnroutable)
			}
		}
	}
	for _, b := range []string{"pair-capacity", "node-airtime"} {
		if bottlenecks[b] == 0 {
			t.Errorf("no case binds on %q (bottlenecks: %v)", b, bottlenecks)
		}
	}
	if mixed == 0 {
		t.Error("no case has sampled nodes both at and below the service cap")
	}

	// Scheme B's reach-limited access sums and indexed nearest-BS search
	// against the all-BS scans: every kernel, grid and matched BSs, both
	// groupings, healthy and under a 30% outage with an association
	// model. Under the outage a live BS is also moved onto a dead one,
	// once with the lower id and once with the higher, so destinations
	// near it tie on the least distance and the least id must win.
	kernels := []mobility.Kernel{
		mobility.UniformDisk{D: 1},
		mobility.Cone{D: 1},
		mobility.TruncGauss{Sigma: 0.3, D: 1},
		mobility.PowerLaw{D0: 0.1, Beta: 2, D: 1},
	}
	assoc := &delay.AssocConfig{HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8}
	p := scaling.Params{N: 512, Alpha: 0.3, K: 0.8, Phi: 1, M: 1}
	penalized := 0
	for _, k := range kernels {
		for _, bs := range []network.BSPlacement{network.Grid, network.Matched} {
			for _, fault := range []string{"healthy", "outage", "outage/tie-low", "outage/tie-high"} {
				cfg := network.Config{Params: p, Kernel: k, Seed: 3, BSPlacement: bs}
				var ac *delay.AssocConfig
				if fault != "healthy" {
					plan, err := faults.New(faults.Config{Seed: 7, BSOutageFraction: 0.3, BSOutageStart: 100})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults, ac = plan, assoc
				}
				nw, err := network.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if fault == "outage/tie-low" || fault == "outage/tie-high" {
					moveLiveOntoDead(t, nw, fault == "outage/tie-low")
					if tiedHomes(nw) == 0 {
						t.Fatalf("%s/%v/%s: no home ties on its nearest BS", k.Name(), bs, fault)
					}
				}
				for _, v := range reassocPenalties(nw, ac) {
					if v > 0 {
						penalized++
					}
				}
				tr, err := traffic.NewPermutation(p.N, rng.New(3).Derive("traffic").Rand())
				if err != nil {
					t.Fatal(err)
				}
				for _, groupBy := range []GroupBy{BySquarelet, ByCluster} {
					name := fmt.Sprintf("schemeB/%s/%v/%s/group=%d", k.Name(), bs, fault, groupBy)
					want, wantUnroutable := breakdowns(t, refDelaySchemeB(groupBy, ac), nw, tr)
					got, gotUnroutable := breakdowns(t, delaySchemeB{groupBy: groupBy, assoc: ac}.EvaluateDelay, nw, tr)
					sameBreakdowns(t, name, got, gotUnroutable, want, wantUnroutable)
				}
			}
		}
	}
	if penalized == 0 {
		t.Error("no scheme B case charges a re-association penalty")
	}
}

// moveLiveOntoDead puts a live BS at the position of the first dead
// BS that is some home's nearest: a live BS of lower id when lower is
// set, of higher id otherwise.
func moveLiveOntoDead(t *testing.T, nw *network.Network, lower bool) {
	t.Helper()
	dead := -1
	for _, h := range nw.HomePoints() {
		best, bestD := -1, math.Inf(1)
		for j, y := range nw.BSPos {
			if d2 := geom.Dist2(h, y); d2 < bestD {
				best, bestD = j, d2
			}
		}
		if !nw.BSIsLive(best) {
			dead = best
			break
		}
	}
	if dead < 0 {
		t.Fatal("no home is nearest to a dead BS")
	}
	for j := range nw.BSPos {
		if nw.BSIsLive(j) && (j < dead) == lower {
			nw.BSPos[j] = nw.BSPos[dead]
			return
		}
	}
	t.Fatalf("no live BS on the requested side of dead BS %d", dead)
}

// tiedHomes counts the home-points whose least geom.Dist2 to a BS two
// or more BSs attain.
func tiedHomes(nw *network.Network) int {
	tied := 0
	for _, h := range nw.HomePoints() {
		best, count := math.Inf(1), 0
		for _, y := range nw.BSPos {
			if d2 := geom.Dist2(h, y); d2 < best {
				best, count = d2, 1
			} else if d2 == best {
				count++
			}
		}
		if count > 1 {
			tied++
		}
	}
	return tied
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

// The node-airtime pass, with its early stops, must reproduce the
// reference evaluations bit for bit on fuzzed sizes, mobility
// exponents, S* constants and seeds: summed in full and sampled, with
// the cap binding and with node service below it.
func FuzzNodeServiceMatchesReference(f *testing.F) {
	f.Add(uint16(240), uint8(4), uint16(980), uint64(1))
	f.Add(uint16(484), uint8(4), uint16(890), uint64(1))
	f.Add(uint16(1008), uint8(4), uint16(980), uint64(2))
	f.Add(uint16(1008), uint8(4), uint16(895), uint64(1))
	f.Add(uint16(1000), uint8(4), uint16(80), uint64(3))
	f.Add(uint16(584), uint8(15), uint16(580), uint64(1))
	f.Add(uint16(700), uint8(30), uint16(2400), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw uint16, alphaRaw uint8, ctRaw uint16, seed uint64) {
		p := scaling.Params{N: 16 + int(nRaw%1100), Alpha: float64(alphaRaw%50) / 100, K: -1, M: 1}
		ct := 0.02 + float64(ctRaw%4000)/1000
		nw, tr := buildNetPlaced(t, p, seed, network.Grid)
		checkNodeService(t, fmt.Sprintf("n=%d alpha=%v seed=%d", p.N, p.Alpha, seed), nw, ct)
		cases := []struct {
			what      string
			got, want func() (*Evaluation, error)
		}{
			{"twoHop", func() (*Evaluation, error) { return TwoHopRelay{CT: ct}.Evaluate(nw, tr) },
				func() (*Evaluation, error) { return refTwoHop(TwoHopRelay{CT: ct}, nw, tr) }},
			{"d2d", func() (*Evaluation, error) { return D2D{CT: ct}.Evaluate(nw, tr) },
				func() (*Evaluation, error) { return refD2D(D2D{CT: ct}, nw, tr) }},
		}
		for _, c := range cases {
			want, werr := c.want()
			got, gerr := c.got()
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("n=%d alpha=%v ct=%v seed=%d %s: err = %v, want %v", p.N, p.Alpha, ct, seed, c.what, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if err := sameEvaluation(got, want); err != nil {
				t.Errorf("n=%d alpha=%v ct=%v seed=%d %s: %v", p.N, p.Alpha, ct, seed, c.what, err)
			}
		}
	})
}

// nearestLeastID must pick what a scan of every point picks: the least
// geom.Dist2, the least id among ties. Points and queries on coarse
// dyadic lattices make exact ties common, between duplicates and
// between distinct points in different cells of the index.
func TestNearestLeastIDMatchesScan(t *testing.T) {
	rnd := rng.New(11).Rand()
	var buf []int32
	for trial := 0; trial < 200; trial++ {
		pts := make([]geom.Point, 1+rnd.Intn(300))
		for i := range pts {
			pts[i] = geom.Point{X: float64(rnd.Intn(16)) / 16, Y: float64(rnd.Intn(16)) / 16}
		}
		ix := spatial.New(pts, 0)
		for q := 0; q < 64; q++ {
			h := geom.Point{X: float64(rnd.Intn(64)) / 64, Y: float64(rnd.Intn(64)) / 64}
			want, wantD := -1, math.Inf(1)
			for j, y := range pts {
				if d2 := geom.Dist2(h, y); d2 < wantD {
					want, wantD = j, d2
				}
			}
			var got int
			if got, buf = nearestLeastID(ix, h, buf); got != want {
				t.Fatalf("trial %d, %d points, query %v: nearest = %d, want %d", trial, len(pts), h, got, want)
			}
		}
	}
}
