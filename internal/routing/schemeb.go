package routing

import (
	"fmt"
	"math"

	"hybridcap/internal/backbone"
	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/traffic"
)

// GroupBy selects how scheme B groups MSs with the BSs that serve them.
type GroupBy int

// Grouping modes. BySquarelet is Definition 12's constant-area
// tessellation (the uniformly dense regime); ByCluster replaces
// squarelets with clusters, the modification used in the proof of
// Theorem 7 for the weak-mobility regime.
const (
	BySquarelet GroupBy = iota + 1
	ByCluster
)

// String implements fmt.Stringer.
func (g GroupBy) String() string {
	switch g {
	case BySquarelet:
		return "squarelet"
	case ByCluster:
		return "cluster"
	default:
		return fmt.Sprintf("GroupBy(%d)", int(g))
	}
}

// SchemeB is the optimal infrastructure routing scheme of Definition 12,
// in three phases: (I) the source MS relays its traffic to all BSs in
// its group, (II) those BSs forward over the wired backbone to the BSs
// of the destination group, (III) which deliver to the destination MS.
// Theorem 5 (strong mobility) and Theorem 7 (weak mobility, with
// clusters as groups) show it sustains Theta(min(k^2 c/n, k/n)).
//
// Under an installed fault plan (network.Config.Faults) the scheme
// degrades per pair instead of failing: a pair whose source or
// destination group lost every live serving BS — or whose groups lost
// every usable backbone edge — is rerouted over the Fallback wireless
// transport and counted in Evaluation.Degraded; if the fallback cannot
// serve either, the pair is shed and counted in Evaluation.Dropped.
// Neither counter zeroes Lambda the way Failures does.
type SchemeB struct {
	// GroupBy selects squarelet (default) or cluster grouping.
	GroupBy GroupBy
	// Cells is the number of squarelet cells per side for BySquarelet;
	// zero selects the largest side (up to 4) whose every squarelet
	// holds a live BS.
	Cells int
	// AccessRT overrides the MS-BS transmission range. Zero selects the
	// S* range cT/sqrt(n) for squarelet grouping and the subnet-optimal
	// r*sqrt(m/n) of Table I for cluster grouping.
	AccessRT float64
	// CT is the constant in the default S* range.
	CT float64
	// Fallback serves fault-degraded pairs; nil selects SchemeA (the
	// paper's BS-free multihop transport). It must not be a scheme that
	// itself requires infrastructure.
	Fallback Scheme
}

// Name implements Scheme.
func (s SchemeB) Name() string { return "schemeB" }

// Evaluate implements Scheme.
func (s SchemeB) Evaluate(nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	if err := validate(nw, tr); err != nil {
		return nil, err
	}
	if nw.NumBS() == 0 {
		return nil, fmt.Errorf("routing: scheme B requires base stations")
	}
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
		bsGroups = nw.BSClusterMembers() // live BSs only
		groupOfMS = make([]int, nw.NumMS())
		copy(groupOfMS, nw.Placement.ClusterOf)
	default:
		return nil, fmt.Errorf("routing: unknown grouping %v", groupBy)
	}

	a, err := linkcap.NewAnalytic(nw, s.CT)
	if err != nil {
		return nil, fmt.Errorf("routing: scheme B: %w", err)
	}
	rt := s.AccessRT
	if rt <= 0 {
		rt = defaultAccessRT(nw, groupBy, a)
	}

	ev := &Evaluation{Detail: map[string]float64{}}

	// Wired backbone with surviving edge capacities (phase II). Without
	// a fault plan it holds no per-edge state.
	bb, err := backbone.New(nw.NumBS(), nw.Cfg.Params.BandwidthC())
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	if plan != nil || nw.BSAlive != nil {
		if err := bb.ApplyFaults(plan, nw.BSAlive); err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
	}

	// Per-group air-interface service (phases I & III): the group's
	// service rate is the summed, per-BS-capped MS-BS capacity over its
	// live BSs (Lemma 9 machinery with the Lemma 8 cap).
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

	// Classify pairs: infrastructure-routable pairs load their groups'
	// air interfaces and the backbone; the rest degrade to the fallback
	// when a fault plan is installed, or count as legacy failures on a
	// healthy network (finite-size artifact: a group without BSs).
	infraLoad := make([]float64, len(msGroups))
	degraded := 0
	// Phase II spreads each cross-group pair's unit rate evenly over the
	// usable wired edges between its groups. BS groups are disjoint, so
	// every edge between groups A and B belongs to that one unordered
	// group pair and carries the same load; one summary per pair (its
	// usable edges, weakest edge and routed MS pairs) stands for all of
	// its edges.
	type groupLink struct {
		edges  int
		minCap float64
		pairs  int
	}
	var links []groupLink
	linkIdx := make(map[cellEdge]int)
	linkOf := func(gs, gd int) int {
		key := cellEdge{from: min(gs, gd), to: max(gs, gd)}
		i, ok := linkIdx[key]
		if !ok {
			edges, minCap := bb.GroupLink(bsGroups[gs], bsGroups[gd])
			i = len(links)
			links = append(links, groupLink{edges: edges, minCap: minCap})
			linkIdx[key] = i
		}
		return i
	}
	for src, dst := range tr.DestOf {
		gs, gd := groupOfMS[src], groupOfMS[dst]
		ok := usable(gs) && usable(gd)
		link := -1
		if ok && gs != gd {
			link = linkOf(gs, gd)
			ok = links[link].edges > 0
		}
		switch {
		case ok:
			infraLoad[gs]++
			infraLoad[gd]++
			if link >= 0 {
				links[link].pairs++
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
	// Each routed pair adds 1/edges to every edge of its group pair. The
	// load is rebuilt as that sequential sum, not pairs*(1/edges), so it
	// is bit-identical to per-edge accumulation; the weakest edge then
	// bounds the pair, since (c*f)/load is monotone in the factor f.
	lambdaBackbone := math.Inf(1)
	for _, l := range links {
		if l.pairs == 0 {
			continue
		}
		per := 1 / float64(l.edges)
		load := 0.0
		for i := 0; i < l.pairs; i++ {
			load += per
		}
		if r := l.minCap / load; r < lambdaBackbone {
			lambdaBackbone = r
		}
	}

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

	// Degraded pairs ride the fallback wireless transport. Its rate is
	// evaluated on the full permutation (wireless transport sustains the
	// same order on any sub-pattern); the slowest transport in use
	// bounds the uniform per-pair rate.
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
				// Not even the fallback transport can serve these pairs:
				// shed them, keep serving the infrastructure-routable rest.
				ev.Dropped = degraded
			}
		}
		// The scheme may also abandon the crippled infrastructure
		// entirely: if routing every pair over the fallback beats the
		// mixed plan, it does, so the rate never falls below the pure
		// ad hoc floor while a working fallback exists.
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
		// Every pair failed or was dropped; nothing is served.
		ev.Lambda = 0
		if ev.Dropped > 0 {
			ev.Bottleneck = "dropped"
		}
	}
	return finish(ev), nil
}

// defaultSquareletSide picks the largest constant tessellation (up to
// 4x4, Definition 12 only requires constant element area) whose every
// squarelet contains at least one live BS. At the asymptotic scale every
// choice works w.h.p. (k = omega(1) BSs per constant-area squarelet);
// at finite n a too-fine grid leaves squarelets BS-less.
func defaultSquareletSide(nw *network.Network) int {
	livePos, _ := nw.LiveBSPositions()
	for side := 4; side >= 2; side-- {
		g := geom.NewGridCells(side)
		//lint:ignore hotalloc grid probe runs once per evaluation over at most three candidate tessellations, outside the slot loop
		counts := make([]int, g.NumCells())
		for _, y := range livePos {
			counts[g.CellIndexOf(y)]++
		}
		ok := true
		for _, c := range counts {
			if c == 0 {
				ok = false
				break
			}
		}
		if ok {
			return side
		}
	}
	return 1
}

// defaultAccessRT picks the Table-I optimal access transmission range
// for the grouping mode.
func defaultAccessRT(nw *network.Network, groupBy GroupBy, a *linkcap.Analytic) float64 {
	if groupBy == ByCluster {
		p := nw.Cfg.Params
		m := float64(p.NumClusters())
		n := float64(p.N)
		return p.ClusterRadius() * math.Sqrt(m/n)
	}
	return a.RT()
}
