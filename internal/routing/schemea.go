package routing

import (
	"fmt"
	"math"
	"sort"

	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/traffic"
)

// SchemeA is the optimal BS-free routing scheme of Definition 11: the
// torus is tessellated into squarelets of side Theta(1/f); traffic is
// forwarded through contiguous squarelets toward the destination, each
// hop relayed by a node whose home-point lies in the next squarelet.
// Lemma 5 shows it sustains Theta(1/f(n)) per node.
//
// The evaluator routes over the squarelet adjacency graph with
// congestion-aware shortest paths (a light multicommodity-flow
// approximation). The paper's plain row-then-column path is equivalent
// in order once squarelet occupancy concentrates; congestion awareness
// removes the finite-size penalty of routing blindly through unusually
// sparse squarelets, staying within the paper's capacity definition
// (Definitions 5-6 allow any routing).
type SchemeA struct {
	// CellFrac scales the squarelet side as CellFrac * D/f, where D is
	// the kernel support. It must be small enough that home-points in
	// adjacent squarelets can meet (diagonal span < 2D/f); zero selects
	// the default 0.8.
	CellFrac float64
	// CT is the constant in the S* transmission range cT/sqrt(n); zero
	// selects linkcap.DefaultCT.
	CT float64
	// Iterations is the number of congestion-aware re-routing passes;
	// zero selects 3, negative selects 1 (pure capacity-weighted
	// shortest path, no congestion feedback).
	Iterations int
}

// DefaultCellFrac keeps the adjacent-squarelet diagonal within the
// meeting reach 2D/f: sqrt(5)*0.8 ~ 1.79 < 2.
const DefaultCellFrac = 0.8

// DefaultTailFrac is the load fraction allowed on over-tight edges when
// extracting the bottleneck rate (see bottleneckRate): the reported
// rate is sustainable for at least 98% of the carried load, matching
// the paper's with-high-probability statements.
const DefaultTailFrac = 0.02

// Name implements Scheme.
func (s SchemeA) Name() string { return "schemeA" }

// Evaluate implements Scheme.
func (s SchemeA) Evaluate(nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	ev, _, err := s.evaluate(nw, tr)
	return ev, err
}

// evaluate is Evaluate that also returns the routed squarelet graph.
func (s SchemeA) evaluate(nw *network.Network, tr *traffic.Pattern) (*Evaluation, *cellGraph, error) {
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
		return nil, nil, fmt.Errorf("routing: scheme A: %w", err)
	}
	d := nw.Sampler.Kernel().Support()
	side := frac * d / nw.F()
	g := geom.NewGrid(side)
	homes := nw.HomePoints()
	members := cellMembersOf(g, homes)

	caps := &squareletCaps{a: a, homes: homes, src: rng.New(0xA).Derive("schemeA-cap"), terms: make([]float64, maxSampledPairs)}
	graph, err := newCellGraph(g, members, caps)
	if err != nil {
		return nil, nil, fmt.Errorf("routing: scheme A: %w", err)
	}

	ev := &Evaluation{Detail: map[string]float64{}}
	// Collapse pair demands to cell-pair demands so each Dijkstra tree is
	// reused by all pairs sharing a source cell.
	demands := make(map[cellEdge]float64)
	for src, dst := range tr.DestOf {
		sc := g.CellIndexOf(homes[src])
		dc := g.CellIndexOf(homes[dst])
		demands[cellEdge{sc, dc}]++
	}
	failures := graph.routeAll(demands, iters)
	ev.Failures = failures
	ev.Detail["routeFailures"] = float64(failures)

	lambda, strict := graph.bottleneck()
	if math.IsNaN(lambda) {
		return nil, nil, fmt.Errorf("routing: scheme A found no loaded edges (n=%d)", nw.NumMS())
	}
	ev.Lambda = lambda
	ev.Detail["strictMin"] = strict
	ev.Bottleneck = "relay"
	ev.Detail["gridCells"] = float64(g.NumCells())
	return finish(ev), graph, nil
}

// cellGraph is scheme A's capacitated graph over occupied tessellation
// cells (4-adjacency plus self-edges), with congestion-aware
// shortest-path routing.
type cellGraph struct {
	g        geom.Grid
	occupied []bool
	// For each occupied cell, neighbor cell ids and the capacity of the
	// directed edge to them (self-edge stored separately).
	nbr     [][]int32
	nbrCap  [][]float64
	nbrLoad [][]float64
	selfCap []float64
	// selfLoad accumulates in-cell delivery load.
	selfLoad []float64

	// Reusable scratch for routeAll/dijkstra, so the per-source
	// shortest-path passes allocate nothing after the first call.
	distScratch   []float64
	parentScratch []int32
	pqScratch     cellPQ
	prevLoad      [][]float64
	edgeWeight    [][]float64
}

// cellDirs are the 4-adjacency steps in edge order. Each forward step
// (even index) is followed by its reverse.
var cellDirs = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// newCellGraph builds the adjacency structure with the MS-MS capacities
// between member groups; a self-edge carries half the in-cell capacity.
//
// On a grid two cells wide both horizontal neighbours of a cell are the
// same cell (likewise vertically): the two parallel edges are kept, and
// routeAll loads the first.
func newCellGraph(g geom.Grid, members [][]int, caps *squareletCaps) (*cellGraph, error) {
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
		if cg.occupied[c] {
			any = true
		}
	}
	if !any {
		return nil, fmt.Errorf("no occupied cells")
	}
	// dirCap[c][d] is the capacity of the edge from c in direction d.
	// One capacity pass per neighbour pair fills both directions: the
	// reverse of c's forward step d leads from the neighbour back to c.
	dirCap := make([][4]float64, n)
	for c := range members {
		if !cg.occupied[c] {
			continue
		}
		col, row := g.ColRow(c)
		for d := 0; d < len(cellDirs); d += 2 {
			nb := g.Index(col+cellDirs[d][0], row+cellDirs[d][1])
			if nb == c || !cg.occupied[nb] {
				continue
			}
			dirCap[c][d], dirCap[nb][d+1] = caps.pair(members[c], members[nb])
		}
	}
	for c := range members {
		if !cg.occupied[c] {
			continue
		}
		col, row := g.ColRow(c)
		for d, step := range cellDirs {
			nb := g.Index(col+step[0], row+step[1])
			if nb == c || !cg.occupied[nb] {
				continue
			}
			cap := dirCap[c][d]
			if cap <= 0 {
				continue
			}
			cg.nbr[c] = append(cg.nbr[c], int32(nb))
			cg.nbrCap[c] = append(cg.nbrCap[c], cap)
			cg.nbrLoad[c] = append(cg.nbrLoad[c], 0)
		}
		if len(members[c]) > 1 {
			cg.selfCap[c] = caps.self(members[c]) / 2
		}
	}
	return cg, nil
}

func (cg *cellGraph) resetLoads() {
	for c := range cg.nbrLoad {
		for i := range cg.nbrLoad[c] {
			cg.nbrLoad[c][i] = 0
		}
		cg.selfLoad[c] = 0
	}
}

// cellDemand is one sink of a source cell's demand list.
type cellDemand struct {
	dst    int32
	demand float64
}

// routeAll routes the demand matrix with iters congestion-aware passes
// and returns the number of unroutable demand units.
//
// Demands are grouped per source into sorted slices before routing.
// The load accumulation itself is order-independent — demands are
// integer-valued, so the float additions onto each edge are exact in
// any order — but sorted iteration keeps the pass cache-friendly and
// free of map-range overhead in the hot loop.
func (cg *cellGraph) routeAll(demands map[cellEdge]float64, iters int) int {
	// Group demands by source cell into dense sorted slices.
	srcOf := make(map[int]int)
	var srcs []int32
	for e := range demands {
		if _, ok := srcOf[e.from]; !ok {
			srcOf[e.from] = -1
			srcs = append(srcs, int32(e.from))
		}
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	sinks := make([][]cellDemand, len(srcs))
	for i, s := range srcs {
		srcOf[int(s)] = i
	}
	for e, d := range demands {
		i := srcOf[e.from]
		sinks[i] = append(sinks[i], cellDemand{dst: int32(e.to), demand: d})
	}
	for i := range sinks {
		sort.Slice(sinks[i], func(a, b int) bool { return sinks[i][a].dst < sinks[i][b].dst })
	}

	if cg.prevLoad == nil {
		cg.prevLoad = make([][]float64, len(cg.nbrLoad))
		cg.edgeWeight = make([][]float64, len(cg.nbrLoad))
		for c := range cg.nbrLoad {
			cg.prevLoad[c] = make([]float64, len(cg.nbrLoad[c]))
			cg.edgeWeight[c] = make([]float64, len(cg.nbrLoad[c]))
		}
	}
	failures := 0
	for it := 0; it < iters; it++ {
		// Edge weights: inverse capacity, penalized by the congestion
		// observed in the previous pass. The weight of an edge is fixed
		// within a pass, so it is computed once here instead of per
		// relaxation inside dijkstra — same expression, same bits.
		for c := range cg.nbrLoad {
			copy(cg.prevLoad[c], cg.nbrLoad[c])
		}
		maxRatio := 0.0
		for c := range cg.nbr {
			for i := range cg.nbr[c] {
				if r := cg.prevLoad[c][i] / cg.nbrCap[c][i]; r > maxRatio {
					maxRatio = r
				}
			}
		}
		for c := range cg.nbr {
			for i := range cg.nbr[c] {
				w := 1 / cg.nbrCap[c][i]
				if maxRatio > 0 {
					w *= 1 + cg.prevLoad[c][i]/cg.nbrCap[c][i]/maxRatio
				}
				cg.edgeWeight[c][i] = w
			}
		}
		cg.resetLoads()
		failures = 0
		for si, src := range srcs {
			parent := cg.dijkstra(int(src))
			for _, sink := range sinks[si] {
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

// dijkstra returns the shortest-path parent array from src under the
// precomputed edgeWeight table (-1 = unreachable). The returned slice
// is scratch owned by the graph: it is valid until the next call.
func (cg *cellGraph) dijkstra(src int) []int32 {
	n := len(cg.nbr)
	if cg.distScratch == nil {
		cg.distScratch = make([]float64, n)
		cg.parentScratch = make([]int32, n)
	}
	dist, parent := cg.distScratch, cg.parentScratch
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	if !cg.occupied[src] {
		return parent
	}
	dist[src] = 0
	parent[src] = int32(src)
	pq := &cg.pqScratch
	pq.items = append(pq.items[:0], cellPQItem{cell: int32(src), dist: 0})
	for len(pq.items) > 0 {
		top := pq.pop()
		c := int(top.cell)
		if top.dist > dist[c] {
			continue
		}
		w := cg.edgeWeight[c]
		for i, nb := range cg.nbr[c] {
			nd := top.dist + w[i]
			if nd < dist[nb] {
				dist[nb] = nd
				parent[nb] = int32(c)
				pq.push(cellPQItem{cell: nb, dist: nd})
			}
		}
	}
	return parent
}

// bottleneck returns the 2%-tail and strict-minimum sustainable rates
// over loaded edges; NaN if nothing is loaded.
func (cg *cellGraph) bottleneck() (tail, strict float64) {
	var ratios, loads []float64
	for c := range cg.nbr {
		for i := range cg.nbr[c] {
			if cg.nbrLoad[c][i] > 0 {
				ratios = append(ratios, cg.nbrCap[c][i]/cg.nbrLoad[c][i])
				loads = append(loads, cg.nbrLoad[c][i])
			}
		}
		if cg.selfLoad[c] > 0 {
			if cg.selfCap[c] <= 0 {
				ratios = append(ratios, 0)
			} else {
				ratios = append(ratios, cg.selfCap[c]/cg.selfLoad[c])
			}
			loads = append(loads, cg.selfLoad[c])
		}
	}
	if len(ratios) == 0 {
		return math.NaN(), math.NaN()
	}
	return bottleneckRate(ratios, loads, DefaultTailFrac), bottleneckRate(ratios, loads, 0)
}

type cellPQItem struct {
	cell int32
	dist float64
}

// cellPQ is a binary min-heap on dist, specialized to avoid the
// interface boxing of container/heap in the dijkstra inner loop.
//
// Exact-order contract: the heap array after every push and pop is the
// one container/heap would hold — up while strictly less than the
// parent, down preferring the left child unless the right is strictly
// less — so equal-distance ties pop in the same order and parent arrays
// stay bit-identical to the generic version. The sifts shift parents or
// children into the gap and write the moving item once, at its final
// slot, which leaves the same array as swapping it level by level.
type cellPQ struct {
	items []cellPQItem
}

func (p *cellPQ) push(it cellPQItem) {
	p.items = append(p.items, it)
	items := p.items
	j := len(items) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.dist < items[i].dist) {
			break
		}
		items[j] = items[i]
		j = i
	}
	items[j] = it
}

func (p *cellPQ) pop() cellPQItem {
	items := p.items
	n := len(items) - 1
	top, last := items[0], items[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && items[j2].dist < items[j].dist {
			j = j2
		}
		if !(items[j].dist < last.dist) {
			break
		}
		items[i] = items[j]
		i = j
	}
	items[i] = last
	p.items = items[:n]
	return top
}
