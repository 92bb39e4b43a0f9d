package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

// refCapCalls counts referenceSchemeA's capacity evaluations by branch,
// so the reference test can check it reaches both.
type refCapCalls struct{ exact, sampled int }

// referenceSchemeA is scheme A as first written: every directed
// squarelet edge computes its capacity on its own with refGroupCapMSMS
// and a fresh TapeRand, and Dijkstra runs on a heap that swaps the
// moving item level by level. It is the reference SchemeA.Evaluate
// must reproduce bit for bit; it returns the routed graph so the edge
// loads can be compared too.
func referenceSchemeA(s SchemeA, nw *network.Network, tr *traffic.Pattern, calls *refCapCalls) (*Evaluation, *cellGraph, error) {
	if err := validate(nw, tr); err != nil {
		return nil, nil, err
	}
	frac := s.CellFrac
	if frac <= 0 {
		frac = DefaultCellFrac
	}
	iters := s.Iterations
	if iters == 0 {
		iters = 3
	}
	if iters < 0 {
		iters = 1
	}
	a, err := linkcap.NewAnalytic(nw, s.CT)
	if err != nil {
		return nil, nil, err
	}
	d := nw.Sampler.Kernel().Support()
	g := geom.NewGrid(frac * d / nw.F())
	homes := nw.HomePoints()
	members := cellMembersOf(g, homes)

	graph, err := refNewCellGraph(g, members, func(A, B []int, self bool) float64 {
		if len(A)*len(B) > maxSampledPairs {
			calls.sampled++
		} else {
			calls.exact++
		}
		rnd := rng.New(0xA).Derive("schemeA-cap").TapeRand()
		cap := refGroupCapMSMS(a, homes, A, B, a.RT(), rnd)
		if self {
			cap /= 2
		}
		return cap
	})
	if err != nil {
		return nil, nil, err
	}
	ev := &Evaluation{Detail: map[string]float64{}}
	demands := make(map[cellEdge]float64)
	for src, dst := range tr.DestOf {
		demands[cellEdge{g.CellIndexOf(homes[src]), g.CellIndexOf(homes[dst])}]++
	}
	failures := refRouteAll(graph, demands, iters)
	ev.Failures = failures
	ev.Detail["routeFailures"] = float64(failures)
	lambda, strict := graph.bottleneck()
	if math.IsNaN(lambda) {
		return nil, nil, fmt.Errorf("no loaded edges")
	}
	ev.Lambda = lambda
	ev.Detail["strictMin"] = strict
	ev.Bottleneck = "relay"
	ev.Detail["gridCells"] = float64(g.NumCells())
	return finish(ev), graph, nil
}

// refGroupCapMSMS is the per-direction group capacity: exact over all
// pairs up to maxSampledPairs, sampled above.
func refGroupCapMSMS(a *linkcap.Analytic, homes []geom.Point, groupA, groupB []int, rt float64, rnd *rand.Rand) float64 {
	na, nb := len(groupA), len(groupB)
	if na == 0 || nb == 0 {
		return 0
	}
	total := na * nb
	if total <= maxSampledPairs {
		sum := 0.0
		for _, i := range groupA {
			for _, j := range groupB {
				if i == j {
					continue
				}
				sum += a.MSMSAt(geom.Dist(homes[i], homes[j]), rt)
			}
		}
		return sum
	}
	sum := 0.0
	valid := 0
	for s := 0; s < maxSampledPairs; s++ {
		i := groupA[rnd.Intn(na)]
		j := groupB[rnd.Intn(nb)]
		if i == j {
			continue
		}
		valid++
		sum += a.MSMSAt(geom.Dist(homes[i], homes[j]), rt)
	}
	if valid == 0 {
		return 0
	}
	return sum / float64(valid) * float64(total)
}

// refNewCellGraph calls capFn once per directed edge, in edge order.
func refNewCellGraph(g geom.Grid, members [][]int, capFn func(a, b []int, self bool) float64) (*cellGraph, error) {
	n := g.NumCells()
	cg := &cellGraph{
		g:        g,
		occupied: make([]bool, n),
		nbr:      make([][]int32, n),
		nbrCap:   make([][]float64, n),
		nbrLoad:  make([][]float64, n),
		selfCap:  make([]float64, n),
		selfLoad: make([]float64, n),
	}
	any := false
	for c := range members {
		cg.occupied[c] = len(members[c]) > 0
		any = any || cg.occupied[c]
	}
	if !any {
		return nil, fmt.Errorf("no occupied cells")
	}
	for c := range members {
		if !cg.occupied[c] {
			continue
		}
		col, row := g.ColRow(c)
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nb := g.Index(col+d[0], row+d[1])
			if nb == c || !cg.occupied[nb] {
				continue
			}
			cap := capFn(members[c], members[nb], false)
			if cap <= 0 {
				continue
			}
			cg.nbr[c] = append(cg.nbr[c], int32(nb))
			cg.nbrCap[c] = append(cg.nbrCap[c], cap)
			cg.nbrLoad[c] = append(cg.nbrLoad[c], 0)
		}
		if len(members[c]) > 1 {
			cg.selfCap[c] = capFn(members[c], members[c], true)
		}
	}
	return cg, nil
}

// refRouteAll is cellGraph.routeAll with refDijkstra.
func refRouteAll(cg *cellGraph, demands map[cellEdge]float64, iters int) int {
	var srcs []int32
	sinksOf := map[int32][]cellDemand{}
	for e, d := range demands {
		src := int32(e.from)
		if _, ok := sinksOf[src]; !ok {
			srcs = append(srcs, src)
		}
		sinksOf[src] = append(sinksOf[src], cellDemand{dst: int32(e.to), demand: d})
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, sinks := range sinksOf {
		sort.Slice(sinks, func(a, b int) bool { return sinks[a].dst < sinks[b].dst })
	}
	failures := 0
	for it := 0; it < iters; it++ {
		prev := make([][]float64, len(cg.nbrLoad))
		maxRatio := 0.0
		for c := range cg.nbrLoad {
			prev[c] = append([]float64(nil), cg.nbrLoad[c]...)
			for i := range prev[c] {
				if r := prev[c][i] / cg.nbrCap[c][i]; r > maxRatio {
					maxRatio = r
				}
			}
		}
		weight := make([][]float64, len(cg.nbr))
		for c := range cg.nbr {
			weight[c] = make([]float64, len(cg.nbr[c]))
			for i := range cg.nbr[c] {
				w := 1 / cg.nbrCap[c][i]
				if maxRatio > 0 {
					w *= 1 + prev[c][i]/cg.nbrCap[c][i]/maxRatio
				}
				weight[c][i] = w
			}
		}
		cg.resetLoads()
		failures = 0
		for _, src := range srcs {
			parent := refDijkstra(cg, weight, int(src))
			for _, sink := range sinksOf[src] {
				dst, demand := int(sink.dst), sink.demand
				if int(src) == dst {
					cg.selfLoad[src] += demand
					continue
				}
				if parent[dst] < 0 {
					failures += int(demand)
					continue
				}
				for c := dst; c != int(src); {
					p := int(parent[c])
					for i, nb := range cg.nbr[p] {
						if int(nb) == c {
							cg.nbrLoad[p][i] += demand
							break
						}
					}
					c = p
				}
			}
		}
	}
	return failures
}

// refDijkstra is cellGraph.dijkstra on the swapping heap.
func refDijkstra(cg *cellGraph, weight [][]float64, src int) []int32 {
	dist := make([]float64, len(cg.nbr))
	parent := make([]int32, len(cg.nbr))
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	if !cg.occupied[src] {
		return parent
	}
	dist[src] = 0
	parent[src] = int32(src)
	pq := refPQ{{cell: int32(src)}}
	for len(pq) > 0 {
		top := pq.pop()
		c := int(top.cell)
		if top.dist > dist[c] {
			continue
		}
		for i, nb := range cg.nbr[c] {
			if nd := top.dist + weight[c][i]; nd < dist[nb] {
				dist[nb] = nd
				parent[nb] = int32(c)
				pq.push(cellPQItem{cell: nb, dist: nd})
			}
		}
	}
	return parent
}

type cellPQItem struct {
	cell int32
	dist float64
}

// refPQ is the container/heap sift order with level-by-level swaps.
type refPQ []cellPQItem

func (p *refPQ) push(it cellPQItem) {
	*p = append(*p, it)
	h := *p
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (p *refPQ) pop() cellPQItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*p = h[:n]
	return h[n]
}

// sameCellGraph reports the first difference in edges, capacities or
// loads between two routed graphs, comparing floats at the bit level.
func sameCellGraph(got, want *cellGraph) error {
	if len(got.nbr) != len(want.nbr) {
		return fmt.Errorf("%d cells, want %d", len(got.nbr), len(want.nbr))
	}
	for c := range want.nbr {
		if !slices.Equal(got.nbr[c], want.nbr[c]) {
			return fmt.Errorf("cell %d: neighbours %v, want %v", c, got.nbr[c], want.nbr[c])
		}
		for i := range want.nbr[c] {
			if math.Float64bits(got.nbrCap[c][i]) != math.Float64bits(want.nbrCap[c][i]) {
				return fmt.Errorf("cell %d edge %d: cap %v, want %v", c, i, got.nbrCap[c][i], want.nbrCap[c][i])
			}
			if math.Float64bits(got.nbrLoad[c][i]) != math.Float64bits(want.nbrLoad[c][i]) {
				return fmt.Errorf("cell %d edge %d: load %v, want %v", c, i, got.nbrLoad[c][i], want.nbrLoad[c][i])
			}
		}
		if math.Float64bits(got.selfCap[c]) != math.Float64bits(want.selfCap[c]) {
			return fmt.Errorf("cell %d: self cap %v, want %v", c, got.selfCap[c], want.selfCap[c])
		}
		if math.Float64bits(got.selfLoad[c]) != math.Float64bits(want.selfLoad[c]) {
			return fmt.Errorf("cell %d: self load %v, want %v", c, got.selfLoad[c], want.selfLoad[c])
		}
	}
	return nil
}

// SchemeA.Evaluate must reproduce referenceSchemeA bit for bit: Lambda,
// Detail, Failures and every edge capacity and load, across the exact
// and sampled capacity branches, every pass count, 2- and 3-column
// grids (where the two horizontal neighbours coincide or not) and BS
// placements.
func TestSchemeAMatchesReference(t *testing.T) {
	type tcase struct {
		p    scaling.Params
		seed uint64
		bs   network.BSPlacement
		// cols, when set, picks CellFrac for a grid that many cells wide.
		cols int
	}
	var cases []tcase
	ns := []int{256, 1024, 2048, 4096}
	if testing.Short() {
		ns = ns[:2]
	}
	for _, n := range ns {
		for _, alpha := range []float64{0.2, 0.3, 0.45} {
			// alpha = 0.45 at n >= 2048 (1,521 and 2,809 cells) takes
			// a minute and reaches no path the 784-cell grid at
			// n = 1024 does not.
			if alpha == 0.45 && n >= 2048 {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				cases = append(cases, tcase{p: uniformParams(n, alpha, 0.5, 0), seed: seed})
			}
		}
	}
	for _, bs := range []network.BSPlacement{network.Grid, network.Uniform} {
		cases = append(cases, tcase{p: uniformParams(1024, 0.3, 0.8, 1), seed: 4, bs: bs})
	}
	for _, cols := range []int{2, 3} {
		for _, n := range []int{256, 1024} {
			cases = append(cases, tcase{p: uniformParams(n, 0.3, 0.5, 0), seed: 5, cols: cols})
		}
	}

	var calls refCapCalls
	seenCols := map[int]bool{}
	for _, c := range cases {
		nw, tr := buildNetPlaced(t, c.p, c.seed, c.bs)
		s := SchemeA{}
		if c.cols > 0 {
			s.CellFrac = nw.F() / (float64(c.cols) * nw.Sampler.Kernel().Support())
		}
		for _, iters := range []int{0, -1, 5} {
			s.Iterations = iters
			name := fmt.Sprintf("n=%d/alpha=%g/seed=%d/%v/frac=%g/iters=%d", c.p.N, c.p.Alpha, c.seed, c.bs, s.CellFrac, iters)
			want, wantGraph, werr := referenceSchemeA(s, nw, tr, &calls)
			got, gotGraph, gerr := s.evaluate(nw, tr)
			if werr != nil || gerr != nil {
				t.Fatalf("%s: err = %v, want %v", name, gerr, werr)
			}
			if err := sameEvaluation(got, want); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if err := sameCellGraph(gotGraph, wantGraph); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			seenCols[gotGraph.g.Cols] = true
		}
	}
	if calls.exact == 0 || calls.sampled == 0 {
		t.Errorf("capacity branches: %d exact, %d sampled; want both", calls.exact, calls.sampled)
	}
	if !seenCols[2] || !seenCols[3] {
		t.Errorf("grid widths %v; want 2 and 3 among them", seenCols)
	}
}

// Capacity evaluation must not allocate per squarelet edge: a sampling
// RNG built for every edge, or a term buffer per cell pair, adds
// hundreds to thousands of allocations at this point (225 cells, all
// pairs on the exact branch). One evaluation measured 5,581.
func TestSchemeAAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n=4096 network")
	}
	nw, tr := buildNet(t, uniformParams(4096, 0.3, 0.5, 0), 1)
	s := SchemeA{}
	if _, err := s.Evaluate(nw, tr); err != nil { // warm shared caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.Evaluate(nw, tr); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 5800
	if allocs > limit {
		t.Errorf("SchemeA.Evaluate makes %.0f allocations, want <= %d", allocs, limit)
	}
}
