package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybridcap/internal/geom"
)

// torusCellGraph builds a cellGraph over grid g with the adjacency
// newCellGraph gives it (cellDirs order, both parallel edges on a grid
// two cells wide), occupied cells where occupied says so, and edge
// weights drawn from weight in edge order.
func torusCellGraph(g geom.Grid, occupied func(c int) bool, weight func() float64) *cellGraph {
	n := g.NumCells()
	cg := &cellGraph{g: g, occupied: make([]bool, n), nbr: make([][]int32, n), edgeWeight: make([][]float64, n)}
	for c := range cg.occupied {
		cg.occupied[c] = occupied(c)
	}
	for c := range cg.nbr {
		if !cg.occupied[c] {
			continue
		}
		col, row := g.ColRow(c)
		for _, step := range cellDirs {
			nb := g.Index(col+step[0], row+step[1])
			if nb == c || !cg.occupied[nb] {
				continue
			}
			cg.nbr[c] = append(cg.nbr[c], int32(nb))
			cg.edgeWeight[c] = append(cg.edgeWeight[c], weight())
		}
	}
	cg.parallel = hasParallelEdges(cg.nbr)
	cg.fixWeights()
	return cg
}

// refShortestTree is the brute-force shortest-path tree from src: the
// distances by Bellman-Ford relaxation to a fixed point, then for each
// reached cell the predecessor with the least (dist[u]+w, dist[u], u).
// ties counts the cells where two predecessors tie on both dist[u]+w
// and dist[u], so only the id decides.
func refShortestTree(cg *cellGraph, src int) (dist []float64, parent []int32, ties int) {
	n := len(cg.nbr)
	dist = make([]float64, n)
	parent = make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	if !cg.occupied[src] {
		return dist, parent, 0
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for u := range cg.nbr {
			for i, v := range cg.nbr[u] {
				if nd := dist[u] + cg.edgeWeight[u][i]; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
	}
	parent[src] = int32(src)
	tied := make([]bool, n)
	for u := range cg.nbr {
		if math.IsInf(dist[u], 1) {
			continue
		}
		for i, v := range cg.nbr[u] {
			if int(v) == src || dist[u]+cg.edgeWeight[u][i] != dist[v] {
				continue
			}
			p := parent[v]
			switch {
			case p < 0 || dist[u] < dist[p]:
				parent[v] = int32(u)
			case dist[u] == dist[p]:
				tied[v] = tied[v] || int32(u) != p
				parent[v] = min(p, int32(u))
			}
		}
	}
	for _, t := range tied {
		if t {
			ties++
		}
	}
	return dist, parent, ties
}

// checkDijkstra compares cg.dijkstra from every source with
// refShortestTree, distances at the bit level; checks that every edge
// out of a reached cell lands in a later bucket than the cell, which
// is what lets a bucket be settled in any order; and checks the
// queue's memory bound: the fixed ring plus, in entries and overflow
// slots, one per edge and one for the source, never regrown. It
// returns the reference's tie count over all sources.
func checkDijkstra(t testing.TB, name string, cg *cellGraph) int {
	t.Helper()
	edges := 0
	for c := range cg.nbr {
		edges += len(cg.nbr[c])
	}
	ties := 0
	for src := range cg.nbr {
		parent, edge := cg.dijkstra(src)
		wantDist, wantParent, n := refShortestTree(cg, src)
		ties += n
		for c := range wantDist {
			if p := parent[c]; p >= 0 && c != src && cg.nbr[p][edge[c]] != int32(c) {
				t.Fatalf("%s: src %d: edge[%d] = %d names %d->%d, not the tree edge from %d", name, src, c, edge[c], p, cg.nbr[p][edge[c]], p)
			}
			if math.Float64bits(cg.distScratch[c]) != math.Float64bits(wantDist[c]) {
				t.Fatalf("%s: src %d: dist[%d] = %v, want %v", name, src, c, cg.distScratch[c], wantDist[c])
			}
			if parent[c] != wantParent[c] {
				t.Fatalf("%s: src %d: parent[%d] = %d, want %d", name, src, c, parent[c], wantParent[c])
			}
		}
		q := &cg.queue
		for u, d := range wantDist {
			if math.IsInf(d, 1) {
				continue
			}
			for i, v := range cg.nbr[u] {
				if nd := d + cg.edgeWeight[u][i]; q.bucket(nd) <= q.bucket(d) {
					t.Fatalf("%s: src %d: edge %d->%d leads from dist %v to %v in bucket %d, not past %d",
						name, src, u, v, d, nd, q.bucket(nd), q.bucket(d))
				}
			}
		}
	}
	q := &cg.queue
	if len(q.head) != ringBuckets || cap(q.ents) != edges+1 || cap(q.over) != edges+1 {
		t.Fatalf("%s: queue holds a ring of %d, %d entries and %d overflow slots, want %d, %d and %d",
			name, len(q.head), cap(q.ents), cap(q.over), ringBuckets, edges+1, edges+1)
	}
	return ties
}

// With unit and few-valued weights most cells are reached by several
// equally short paths, and often from predecessors at equal distance,
// so the tree depends on the tie rule alone; the bucket queue drains
// each bucket in its own order, which must not show.
func TestDijkstraTiesMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	weights := map[string]func() float64{
		"unit":    func() float64 { return 1 },
		"1,2,3":   func() float64 { return float64(1 + rnd.Intn(3)) },
		"quarter": func() float64 { return 0.25 * float64(1+rnd.Intn(3)) },
	}
	ties := 0
	for _, w := range []string{"unit", "1,2,3", "quarter"} {
		for _, k := range []int{2, 3, 5} {
			for _, holes := range []bool{false, true} {
				occupied := func(int) bool { return !holes || rnd.Intn(6) > 0 }
				name := fmt.Sprintf("%s/%dx%d/holes=%v", w, k, k, holes)
				ties += checkDijkstra(t, name, torusCellGraph(geom.NewGridCells(k), occupied, weights[w]))
			}
		}
	}
	if ties == 0 {
		t.Error("no cell had two tied predecessors at equal distance; the tie rule went untested")
	}
}

// Weights spanning twelve decades put most relaxations past the ring's
// horizon and leave long empty stretches between buckets; weights of 1
// and of half to one and a half times the ring's span keep entries in
// the ring while the horizon reaches those in the overflow. Either way the
// result must stay exact, the work bounded and the queue's memory
// fixed.
func TestDijkstraWideSpreadMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for _, spread := range []string{"decades", "ring"} {
		weight := spreadWeight(spread, rnd)
		for _, k := range []int{2, 5, 8, 16} {
			for _, holes := range []bool{false, true} {
				occupied := func(int) bool { return !holes || rnd.Intn(6) > 0 }
				name := fmt.Sprintf("%s/%dx%d/holes=%v", spread, k, k, holes)
				checkDijkstra(t, name, torusCellGraph(geom.NewGridCells(k), occupied, weight))
			}
		}
	}
}

// spreadWeight draws weights across twelve decades ("decades"), or
// from 1 and values that reach from half to one and a half times the
// ring past the bucket being drained ("ring"); anything else draws
// from a few multiples of 1/2.
func spreadWeight(spread string, rnd *rand.Rand) func() float64 {
	switch spread {
	case "decades":
		return func() float64 { return math.Pow(10, 12*rnd.Float64()-6) }
	case "ring":
		return func() float64 {
			if rnd.Intn(2) == 0 {
				return 1
			}
			return float64(ringBuckets/4 + rnd.Intn(ringBuckets/2))
		}
	}
	return func() float64 { return 0.5 * float64(1+rnd.Intn(4)) }
}

// FuzzDijkstraMatchesReference checks cellGraph.dijkstra against
// refShortestTree on random torus grids 2 to 17 cells on a side, with
// unoccupied cells and weights drawn from a few values, from twelve
// decades or from two scales about the ring's span apart.
func FuzzDijkstraMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(3), int64(2), uint8(1), uint8(1))
	f.Add(uint8(7), uint8(5), int64(3), uint8(2), uint8(2))
	f.Add(uint8(15), uint8(12), int64(4), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, cols, rows uint8, seed int64, spread, holes uint8) {
		rnd := rand.New(rand.NewSource(seed))
		g := geom.Grid{Cols: 2 + int(cols%16), Rows: 2 + int(rows%16)}
		holeFrac := float64(holes%4) / 8
		occupied := func(int) bool { return rnd.Float64() >= holeFrac }
		name := []string{"few", "decades", "ring"}[spread%3]
		checkDijkstra(t, fmt.Sprintf("%s/%dx%d", name, g.Cols, g.Rows), torusCellGraph(g, occupied, spreadWeight(name, rnd)))
	})
}

// routeAll loads, at each hop of a sink's path, the first edge of the
// parent's list that leads to the cell. On a grid two cells wide a
// cell reaches one neighbour by two parallel edges, here of different
// capacity, so the shortest path may have relaxed through the second.
func TestRouteAllLoadsFirstMatchingEdge(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for _, g := range []geom.Grid{{Cols: 2, Rows: 2}, {Cols: 2, Rows: 5}, {Cols: 5, Rows: 2}, {Cols: 4, Rows: 4}} {
		cg := torusCellGraph(g, func(int) bool { return true }, func() float64 { return 1 })
		n := len(cg.nbr)
		cg.nbrCap, cg.nbrLoad = make([][]float64, n), make([][]float64, n)
		cg.selfCap, cg.selfLoad = make([]float64, n), make([]float64, n)
		for c := range cg.nbr {
			for range cg.nbr[c] {
				cg.nbrCap[c] = append(cg.nbrCap[c], float64(1+rnd.Intn(4)))
				cg.nbrLoad[c] = append(cg.nbrLoad[c], 0)
			}
		}
		demands := map[cellEdge]float64{}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				demands[cellEdge{from: src, to: dst}] = float64(1 + rnd.Intn(3))
			}
		}
		// One pass weighs each edge by its inverse capacity alone.
		if failed := cg.routeAll(demands, 1); failed != 0 {
			t.Fatalf("%dx%d: %d demand units unroutable", g.Cols, g.Rows, failed)
		}
		want := make([][]float64, n)
		for c := range want {
			want[c] = make([]float64, len(cg.nbr[c]))
		}
		for e, d := range demands {
			_, parent, _ := refShortestTree(cg, e.from)
			for c := e.to; c != e.from; c = int(parent[c]) {
				p := parent[c]
				for i, nb := range cg.nbr[p] {
					if int(nb) == c {
						want[p][i] += d
						break
					}
				}
			}
		}
		for c := range want {
			for i := range want[c] {
				if cg.nbrLoad[c][i] != want[c][i] {
					t.Fatalf("%dx%d: edge %d of cell %d carries %v, want %v", g.Cols, g.Rows, i, c, cg.nbrLoad[c][i], want[c][i])
				}
			}
		}
	}
}
