package routing

import (
	"fmt"
	"math"
	"slices"
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
// shortest-path routing. Its shortest paths run on a monotone bucket
// queue (see bucketQueue) whose buckets are at most half the lightest
// edge weight of the pass wide, and its parent rule is order-free: on
// an exact tie the predecessor with the least (dist, id) wins, so each
// tree is a function of the final distances alone.
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
	distScratch    []float64
	parentScratch  []int32
	edgeScratch    []int32
	settledScratch []bool
	// parallel marks a graph where some cell has two edges to one
	// neighbour, which only grids two cells wide give.
	parallel   bool
	queue      bucketQueue
	prevLoad   [][]float64
	edgeWeight [][]float64
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
	cg.parallel = hasParallelEdges(cg.nbr)
	return cg, nil
}

// hasParallelEdges reports whether some cell's neighbour list names
// one neighbour twice.
func hasParallelEdges(nbr [][]int32) bool {
	for _, list := range nbr {
		for i, nb := range list {
			if slices.Index(list, nb) < i {
				return true
			}
		}
	}
	return false
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
		cg.fixWeights()
		cg.resetLoads()
		failures = 0
		for si, src := range srcs {
			parent, edge := cg.dijkstra(int(src))
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
					p, e := int(parent[c]), int(edge[c])
					if cg.parallel {
						// Of two parallel edges, the first is loaded.
						e = slices.Index(cg.nbr[p], int32(c))
					}
					cg.nbrLoad[p][e] += demand
					c = p
				}
			}
		}
	}
	return failures
}

// fixWeights sets the bucket width for the edgeWeight table just
// filled: half the lightest positive weight, so an edge out of the
// bucket being settled always lands in a later one (a graph without
// edges gets width infinity). It must be called whenever edgeWeight
// changes.
func (cg *cellGraph) fixWeights() {
	wmin := math.Inf(1)
	for c := range cg.edgeWeight {
		for _, w := range cg.edgeWeight[c] {
			if w > 0 && w < wmin {
				wmin = w
			}
		}
	}
	cg.queue.inv = 2 / wmin
}

// dijkstra returns the shortest-path parent array from src under the
// edgeWeight table fixed by fixWeights (-1 = unreachable), and for each
// reached cell but src the index, in its parent's neighbour list, of
// the edge the path takes. The returned slices are scratch owned by the
// graph: they are valid until the next call.
//
// Every entry of the bucket being drained is final, so the bucket is
// settled in whatever order it holds. Parents do not depend on that
// order: a strictly shorter path takes the cell, and on an exact tie
// the predecessor with the least (dist, id) wins. A binary heap gives
// the same tree wherever no two tied predecessors also share their
// own distance, since it settles them in order of dist.
func (cg *cellGraph) dijkstra(src int) (parent, edge []int32) {
	n := len(cg.nbr)
	if cg.distScratch == nil {
		cg.distScratch = make([]float64, n)
		cg.parentScratch = make([]int32, n)
		cg.edgeScratch = make([]int32, n)
		cg.settledScratch = make([]bool, n)
		edges := 0
		for c := range cg.nbr {
			edges += len(cg.nbr[c])
		}
		cg.queue.init(edges + 1)
	}
	dist, settled := cg.distScratch, cg.settledScratch
	parent, edge = cg.parentScratch, cg.edgeScratch
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
		settled[i] = false
	}
	if !cg.occupied[src] {
		return parent, edge
	}
	dist[src] = 0
	parent[src] = int32(src)
	q := &cg.queue
	q.reset()
	q.push(int32(src), 0)
	for {
		c, ok := q.pop()
		if !ok {
			break
		}
		if settled[c] {
			continue
		}
		settled[c] = true
		d := dist[c]
		w := cg.edgeWeight[c]
		for i, nb := range cg.nbr[c] {
			nd := d + w[i]
			if nd < dist[nb] {
				dist[nb] = nd
				parent[nb], edge[nb] = c, int32(i)
				q.push(nb, nd)
			} else if nd == dist[nb] {
				// p < 0 only where an infinite weight meets a cell
				// not yet reached.
				if p := parent[nb]; p >= 0 && (d < dist[p] || d == dist[p] && c < p) {
					parent[nb], edge[nb] = c, int32(i)
				}
			}
		}
	}
	return parent, edge
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

// ringBuckets is the bucket queue's horizon: the ring holds entries up
// to this many buckets past the one being drained. With buckets half
// the lightest weight wide, one relaxation reaches 2*wmax/wmin+1
// buckets ahead, at most about 25 on the Table I grids, so the ring
// seldom spills.
const ringBuckets = 1 << 8

// bucketQueue is a monotone bucket queue (Dial's algorithm, with
// Dinitz's width of a fraction of the lightest weight) over a ring of
// ringBuckets list heads. An entry of distance d lies in absolute
// bucket floor(d*inv). Entries beyond the ring's horizon wait in an
// overflow list and are linked into the ring when the horizon reaches
// the least of them; an empty ring jumps straight to it. Its memory is
// the fixed ring plus an entry and an overflow slot per push, sized
// once per graph, whatever the weight spread.
type bucketQueue struct {
	// inv is the inverse bucket width.
	inv float64
	// head is the ring of bucket list heads into ents (-1 = empty).
	head []int32
	ents []queueEntry
	// over lists the ents beyond the horizon, overMin the least of
	// their buckets (MaxUint64 when over is empty).
	over    []int32
	overMin uint64
	// cur is the absolute bucket being drained; live counts the ents
	// linked into the ring.
	cur  uint64
	live int
}

type queueEntry struct {
	dist float64
	cell int32
	next int32
}

// maxBucket caps bucket indices, so distances past it share one bucket.
const maxBucket = 1 << 62

// init sizes the queue once for a graph whose Dijkstra pushes at most
// pushes entries per source: one for the source and one per strict
// improvement, at most one per edge since every cell is settled once.
func (q *bucketQueue) init(pushes int) {
	q.head = make([]int32, ringBuckets)
	for i := range q.head {
		q.head[i] = -1
	}
	q.ents = make([]queueEntry, 0, pushes)
	q.over = make([]int32, 0, pushes)
}

// reset empties the queue; a drained queue's ring is already empty.
func (q *bucketQueue) reset() {
	q.ents = q.ents[:0]
	q.over = q.over[:0]
	q.overMin = math.MaxUint64
	q.cur = 0
	q.live = 0
}

// bucket returns the absolute bucket of distance d. It is monotone in
// d, so no push lands before the bucket being drained: a relaxation
// starts from a cell in that bucket, and an overflow entry is never
// before the least of them.
func (q *bucketQueue) bucket(d float64) uint64 {
	if k := d * q.inv; k < maxBucket {
		return uint64(k)
	}
	return maxBucket
}

func (q *bucketQueue) push(cell int32, d float64) {
	b := q.bucket(d)
	i := int32(len(q.ents))
	q.ents = append(q.ents, queueEntry{dist: d, cell: cell})
	if b >= q.cur+ringBuckets {
		q.over = append(q.over, i)
		q.overMin = min(q.overMin, b)
		return
	}
	q.link(i, b)
}

func (q *bucketQueue) link(i int32, b uint64) {
	s := b & (ringBuckets - 1)
	q.ents[i].next = q.head[s]
	q.head[s] = i
	q.live++
}

// pop removes an entry of the least nonempty bucket; ok is false once
// the queue is empty.
func (q *bucketQueue) pop() (cell int32, ok bool) {
	for {
		if q.live == 0 {
			if len(q.over) == 0 {
				return -1, false
			}
			q.cur = q.overMin
			q.spill()
		}
		s := q.cur & (ringBuckets - 1)
		if h := q.head[s]; h >= 0 {
			e := &q.ents[h]
			q.head[s] = e.next
			q.live--
			return e.cell, true
		}
		q.cur++
		if q.cur+ringBuckets > q.overMin {
			q.spill()
		}
	}
}

// spill links the overflow entries now within the horizon into the
// ring and keeps the rest.
func (q *bucketQueue) spill() {
	rest := q.over[:0]
	q.overMin = math.MaxUint64
	for _, i := range q.over {
		b := q.bucket(q.ents[i].dist)
		if b >= q.cur+ringBuckets {
			rest = append(rest, i)
			q.overMin = min(q.overMin, b)
			continue
		}
		q.link(i, b)
	}
	q.over = rest
}
