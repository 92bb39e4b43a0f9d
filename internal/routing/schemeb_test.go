package routing

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hybridcap/internal/backbone"
	"hybridcap/internal/faults"
	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

// perEdgeSchemeB is scheme B with phase II accounted edge by edge: every
// routed cross-group pair adds its share to each usable wired edge
// between its groups, and the backbone rate is the per-edge
// SustainableScale. It is the reference the per-group-pair accounting
// of SchemeB.Evaluate must reproduce bit for bit; everything else
// follows SchemeB.Evaluate step by step.
func perEdgeSchemeB(s SchemeB, nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	groupBy := s.GroupBy
	if groupBy == 0 {
		groupBy = BySquarelet
	}
	plan := nw.Faults()

	var msGroups, bsGroups [][]int
	var groupOfMS []int
	switch groupBy {
	case BySquarelet:
		cells := s.Cells
		if cells <= 0 {
			cells = defaultSquareletSide(nw)
		}
		g := geom.NewGridCells(cells)
		msGroups = cellMembersOf(g, nw.HomePoints())
		bsGroups = make([][]int, g.NumCells())
		livePos, liveIDs := nw.LiveBSPositions()
		for i, y := range livePos {
			c := g.CellIndexOf(y)
			bsGroups[c] = append(bsGroups[c], liveIDs[i])
		}
		groupOfMS = make([]int, nw.NumMS())
		for i, h := range nw.HomePoints() {
			groupOfMS[i] = g.CellIndexOf(h)
		}
	case ByCluster:
		msGroups = nw.MSClusterMembers()
		bsGroups = nw.BSClusterMembers()
		groupOfMS = append([]int(nil), nw.Placement.ClusterOf...)
	}

	a, err := linkcap.NewAnalytic(nw, s.CT)
	if err != nil {
		return nil, err
	}
	rt := s.AccessRT
	if rt <= 0 {
		rt = defaultAccessRT(nw, groupBy, a)
	}
	ev := &Evaluation{Detail: map[string]float64{}}
	bb, err := backbone.New(nw.NumBS(), nw.Cfg.Params.BandwidthC())
	if err != nil {
		return nil, err
	}
	if plan != nil || nw.BSAlive != nil {
		if err := bb.ApplyFaults(plan, nw.BSAlive); err != nil {
			return nil, err
		}
	}

	rnd := rng.New(0xB).Derive("schemeB").Rand()
	endpoints := make([]float64, len(msGroups))
	for src, dst := range tr.DestOf {
		endpoints[groupOfMS[src]]++
		endpoints[groupOfMS[dst]]++
	}
	groupService := make([]float64, len(msGroups))
	for g := range msGroups {
		if endpoints[g] == 0 {
			continue
		}
		for _, b := range bsGroups[g] {
			groupService[g] += groupCapMSBS(a, nw.HomePoints(), msGroups[g], nw.BSPos[b], rt, rnd)
		}
	}
	usable := func(g int) bool { return groupService[g] > 0 }

	infraLoad := make([]float64, len(msGroups))
	degraded := 0
	flows := make(map[cellEdge][][2]int)
	for src, dst := range tr.DestOf {
		gs, gd := groupOfMS[src], groupOfMS[dst]
		ok := usable(gs) && usable(gd)
		var edges [][2]int
		if ok && gs != gd {
			key := cellEdge{from: gs, to: gd}
			var seen bool
			if edges, seen = flows[key]; !seen {
				for _, i := range bsGroups[gs] {
					for _, j := range bsGroups[gd] {
						if bb.EdgeUsable(i, j) {
							edges = append(edges, [2]int{i, j})
						}
					}
				}
				flows[key] = edges
			}
			ok = len(edges) > 0
		}
		switch {
		case ok:
			infraLoad[gs]++
			infraLoad[gd]++
			per := 1 / float64(len(edges))
			for _, e := range edges {
				if err := bb.AddLoad(e[0], e[1], per); err != nil {
					return nil, err
				}
			}
		case plan != nil:
			degraded++
		default:
			if !usable(gs) {
				ev.Failures++
			}
			if !usable(gd) {
				ev.Failures++
			}
		}
	}

	lambdaAccess := math.Inf(1)
	for g := range msGroups {
		if infraLoad[g] == 0 {
			continue
		}
		if r := groupService[g] / infraLoad[g]; r < lambdaAccess {
			lambdaAccess = r
		}
	}
	lambdaBackbone := bb.SustainableScale()

	ev.Detail["lambdaAccess"] = lambdaAccess
	ev.Detail["lambdaBackbone"] = lambdaBackbone
	ev.Detail["groups"] = float64(len(msGroups))
	ev.Detail["accessRT"] = rt
	ev.Detail["liveBS"] = float64(nw.NumLiveBS())
	ev.Lambda = lambdaAccess
	ev.Bottleneck = "access"
	if lambdaBackbone < ev.Lambda {
		ev.Lambda = lambdaBackbone
		ev.Bottleneck = "backbone"
	}
	if plan != nil {
		fb := s.Fallback
		if fb == nil {
			fb = SchemeA{}
		}
		lambdaFallback := 0.0
		if fev, ferr := fb.Evaluate(nw, tr); ferr == nil && fev.Lambda > 0 {
			lambdaFallback = fev.Lambda
		}
		ev.Detail["lambdaFallback"] = lambdaFallback
		if degraded > 0 {
			if lambdaFallback > 0 {
				ev.Degraded = degraded
				if lambdaFallback < ev.Lambda {
					ev.Lambda = lambdaFallback
					ev.Bottleneck = "fallback"
				}
			} else {
				ev.Dropped = degraded
			}
		}
		if lambdaFallback > 0 && lambdaFallback > ev.Lambda {
			ev.Lambda = lambdaFallback
			ev.Bottleneck = "fallback"
			ev.Degraded = len(tr.DestOf)
			ev.Dropped = 0
		}
	}
	if math.IsInf(ev.Lambda, 1) {
		if ev.Failures == 0 && ev.Dropped == 0 {
			return nil, fmt.Errorf("routing: scheme B found no loaded groups")
		}
		ev.Lambda = 0
		if ev.Dropped > 0 {
			ev.Bottleneck = "dropped"
		}
	}
	return finish(ev), nil
}

// fixedRate is a stand-in fallback transport serving every pattern at
// one rate.
type fixedRate float64

func (f fixedRate) Name() string { return "fixedRate" }

func (f fixedRate) Evaluate(*network.Network, *traffic.Pattern) (*Evaluation, error) {
	return &Evaluation{Lambda: float64(f), Bottleneck: "fixed", Detail: map[string]float64{}}, nil
}

// sameEvaluation reports the first difference between two evaluations,
// comparing every float at the bit level.
func sameEvaluation(got, want *Evaluation) error {
	if math.Float64bits(got.Lambda) != math.Float64bits(want.Lambda) {
		return fmt.Errorf("Lambda = %v, want %v", got.Lambda, want.Lambda)
	}
	if got.Bottleneck != want.Bottleneck {
		return fmt.Errorf("Bottleneck = %q, want %q", got.Bottleneck, want.Bottleneck)
	}
	if got.Failures != want.Failures || got.Degraded != want.Degraded || got.Dropped != want.Dropped {
		return fmt.Errorf("Failures/Degraded/Dropped = %d/%d/%d, want %d/%d/%d",
			got.Failures, got.Degraded, got.Dropped, want.Failures, want.Degraded, want.Dropped)
	}
	if len(got.Detail) != len(want.Detail) {
		return fmt.Errorf("Detail has %d keys, want %d", len(got.Detail), len(want.Detail))
	}
	for key, w := range want.Detail {
		g, ok := got.Detail[key]
		if !ok {
			return fmt.Errorf("Detail[%q] missing", key)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("Detail[%q] = %v, want %v", key, g, w)
		}
	}
	return nil
}

// Accounting phase II per unordered group pair must reproduce the
// per-edge accounting bit for bit: on a healthy network, under BS
// outage, edge outage and edge derating, for both grouping modes and
// an explicit squarelet side.
func TestSchemeBGroupPairMatchesPerEdge(t *testing.T) {
	points := []scaling.Params{
		infraDominantParams(1024),
		// Thin backbone (Phi < K): phase II is the binding constraint.
		{N: 1024, Alpha: 0.3, K: 0.8, Phi: -0.5, M: 1},
		// Clustered home-points, the ByCluster regime of Theorem 7.
		{N: 1024, Alpha: 0.45, K: 0.7, Phi: 0.5, M: 0.4, R: 0.25},
	}
	faultCases := []struct {
		name string
		fc   *faults.Config
	}{
		{"healthy", nil},
		{"bs-outage", &faults.Config{Seed: 4, BSOutageFraction: 0.3}},
		{"edge-outage", &faults.Config{Seed: 5, EdgeOutageFraction: 0.4}},
		{"derated", &faults.Config{Seed: 6, EdgeDerating: 0.37, EdgeOutageFraction: 0.2}},
		{"bs-outage-90", &faults.Config{Seed: 7, BSOutageFraction: 0.9}},
	}
	// A fixed-rate fallback keeps the cases cheap; it binds whenever the
	// faults cut the infrastructure rate below it.
	fb := fixedRate(1e-5)
	schemes := []SchemeB{{Fallback: fb}, {GroupBy: ByCluster, Fallback: fb}, {Cells: 2, Fallback: fb}}
	placements := []network.BSPlacement{network.Grid, network.Matched}
	bottlenecks := map[string]int{}
	for pi, p := range points {
		for _, fcase := range faultCases {
			var plan *faults.Plan
			if fcase.fc != nil {
				var err error
				if plan, err = faults.New(*fcase.fc); err != nil {
					t.Fatal(err)
				}
			}
			for _, bs := range placements {
				seed := uint64(31 + pi)
				nw, err := network.New(network.Config{Params: p, Seed: seed, BSPlacement: bs, Faults: plan})
				if err != nil {
					t.Fatal(err)
				}
				tr, err := traffic.NewPermutation(p.N, rng.New(seed).Derive("traffic").Rand())
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range schemes {
					name := fmt.Sprintf("p%d/%s/%v/%v/cells=%d", pi, fcase.name, bs, s.GroupBy, s.Cells)
					want, werr := perEdgeSchemeB(s, nw, tr)
					got, gerr := s.Evaluate(nw, tr)
					if (werr != nil) != (gerr != nil) {
						t.Fatalf("%s: err = %v, want %v", name, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if err := sameEvaluation(got, want); err != nil {
						t.Errorf("%s: %v", name, err)
					}
					bottlenecks[want.Bottleneck]++
				}
			}
		}
	}
	// The cases must exercise the backbone as the binding constraint,
	// not only the access and fallback paths.
	for _, b := range []string{"access", "backbone", "fallback"} {
		if bottlenecks[b] == 0 {
			t.Errorf("no case binds on %q (bottlenecks: %v)", b, bottlenecks)
		}
	}
}

// Phase II must not hold per-edge state on a healthy network: at the
// Table I strong-BS point (n=4096, k=776 grid-placed BSs) an O(k^2)
// load array alone would be 2.3 MiB.
func TestSchemeBAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n=4096 network")
	}
	p := scaling.Params{N: 4096, Alpha: 0.3, K: 0.8, Phi: 1, M: 1}
	nw, tr := buildNetPlaced(t, p, 1, network.Grid)
	if k := nw.NumBS(); k != 776 {
		t.Fatalf("k = %d, want 776", k)
	}
	s := SchemeB{}
	if _, err := s.Evaluate(nw, tr); err != nil { // warm shared caches
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Evaluate(nw, tr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEval := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 2.0 * (1 << 20); perEval >= limit {
		t.Errorf("SchemeB.Evaluate allocates %.0f bytes, want < %.0f", perEval, limit)
	}
}
