package routing

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/rng"
	"hybridcap/internal/spatial"
)

// maxSampledPairs caps the exact pair enumeration in group capacity
// sums; larger products are estimated by uniform pair sampling.
const maxSampledPairs = 4096

// squareletCaps evaluates scheme A's squarelet edge capacities: the
// total MS-MS link capacity between member groups A and B,
// sum over i in A, j in B, i != j of mu(home_i, home_j).
// Products |A|*|B| up to maxSampledPairs are summed exactly; larger ones
// are estimated by pair sampling, which keeps evaluation near-linear
// for dense cells.
type squareletCaps struct {
	a     *linkcap.Analytic
	homes []geom.Point
	// src seeds the sampling stream; every sampled direction replays it
	// from the start.
	src rng.Source
	// terms holds the exact branch's |A|x|B| link capacities, row-major;
	// reused for every pair.
	terms []float64
}

// pair returns the capacity from A to B and from B to A, for disjoint
// groups. The distance and link capacity of each unordered node pair
// are evaluated once: the torus distance is bitwise symmetric, and the
// A->B sum runs row-major, the B->A sum column-major, so each direction
// adds its terms in the order a per-direction sum would.
func (sc *squareletCaps) pair(groupA, groupB []int) (ab, ba float64) {
	na, nb := len(groupA), len(groupB)
	if na*nb > maxSampledPairs {
		return sc.sampled(groupA, groupB), sc.sampled(groupB, groupA)
	}
	t := sc.terms[:na*nb]
	for x, i := range groupA {
		row := t[x*nb : (x+1)*nb]
		for y, j := range groupB {
			row[y] = sc.mu(i, j)
		}
	}
	for _, v := range t {
		ab += v
	}
	for y := 0; y < nb; y++ {
		for k := y; k < len(t); k += nb {
			ba += t[k]
		}
	}
	return ab, ba
}

// self returns the capacity of a group with itself, over ordered pairs
// i != j: the upper triangle is evaluated and mirrored, and the sum runs
// row-major past the diagonal.
func (sc *squareletCaps) self(group []int) float64 {
	n := len(group)
	if n*n > maxSampledPairs {
		return sc.sampled(group, group)
	}
	t := sc.terms[:n*n]
	for x, i := range group {
		for y := x + 1; y < n; y++ {
			v := sc.mu(i, group[y])
			t[x*n+y], t[y*n+x] = v, v
		}
	}
	sum := 0.0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y != x {
				sum += t[x*n+y]
			}
		}
	}
	return sum
}

// mu is the link capacity between nodes i and j.
func (sc *squareletCaps) mu(i, j int) float64 {
	return sc.a.MSMSBetween(sc.homes[i], sc.homes[j])
}

// sampled estimates the A->B capacity from maxSampledPairs pairs drawn
// uniformly with replacement, skipping draws of one node twice.
func (sc *squareletCaps) sampled(groupA, groupB []int) float64 {
	// TapeRand, not Rand: re-seeding math/rand's 607-element state per
	// edge dominated the Table I CPU profile. The replay stream is
	// bit-identical.
	rnd := sc.src.TapeRand()
	na, nb := len(groupA), len(groupB)
	sum := 0.0
	valid := 0
	for s := 0; s < maxSampledPairs; s++ {
		i := groupA[rnd.Intn(na)]
		j := groupB[rnd.Intn(nb)]
		if i == j {
			continue
		}
		valid++
		sum += sc.mu(i, j)
	}
	if valid == 0 {
		return 0
	}
	return sum / float64(valid) * float64(na*nb)
}

// groupCapMSBS returns the total MS-BS access capacity between a group
// of MSs (by home-point) and one BS, capped at the BS's unit wireless
// bandwidth: the BS can at most exchange Theta(1) traffic in unit time
// (protocol model, as used in Lemma 8).
func groupCapMSBS(a *linkcap.Analytic, homes []geom.Point, ms []int, bs geom.Point, rt float64, rnd *rand.Rand) float64 {
	n := len(ms)
	if n == 0 {
		return 0
	}
	if n <= maxSampledPairs {
		sum := 0.0
		for _, i := range ms {
			sum += a.MSBSAt(geom.Dist(homes[i], bs), rt)
			if sum >= 1 {
				return 1
			}
		}
		return sum
	}
	sum := 0.0
	for s := 0; s < maxSampledPairs; s++ {
		i := ms[rnd.Intn(n)]
		sum += a.MSBSAt(geom.Dist(homes[i], bs), rt)
	}
	est := sum / maxSampledPairs * float64(n)
	if est > 1 {
		est = 1
	}
	return est
}

// cellMembersOf buckets ids by the grid cell containing their point.
func cellMembersOf(g geom.Grid, pts []geom.Point) [][]int {
	members := make([][]int, g.NumCells())
	for i, p := range pts {
		c := g.CellIndexOf(p)
		members[c] = append(members[c], i)
	}
	return members
}

// cellEdge is a directed squarelet adjacency used as a load key.
type cellEdge struct {
	from, to int
}

// rowColPath walks the scheme-A route from cell (c1, r1) to cell
// (c2, r2): first horizontally along the row, then vertically along the
// column, taking the short way around the torus on each axis. It calls
// visit for every directed cell step (including the final self-edge for
// in-cell delivery) and returns false early if visit does.
func rowColPath(g geom.Grid, c1, r1, c2, r2 int, visit func(from, to int) bool) {
	cur := g.Index(c1, r1)
	dc := g.ColSteps(c1, c2)
	stepC := 1
	if dc < 0 {
		stepC = -1
		dc = -dc
	}
	col, row := c1, r1
	for s := 0; s < dc; s++ {
		col += stepC
		next := g.Index(col, row)
		if !visit(cur, next) {
			return
		}
		cur = next
	}
	dr := g.RowSteps(r1, r2)
	stepR := 1
	if dr < 0 {
		stepR = -1
		dr = -dr
	}
	for s := 0; s < dr; s++ {
		row += stepR
		next := g.Index(col, row)
		if !visit(cur, next) {
			return
		}
		cur = next
	}
	// Final in-cell delivery hop.
	visit(cur, cur)
}

// bottleneckRate returns the largest rate lambda such that edges with
// capacity/load below lambda carry at most frac of the total load. With
// frac = 0 this is the strict minimum ratio (the exact sustainable rate
// for the fixed routing); a small positive frac discards the
// finite-size tail of unlucky sparse cells, matching the paper's
// with-high-probability statements, which tolerate a vanishing fraction
// of deviant squarelets (Lemma 1 concentration).
func bottleneckRate(ratios, loads []float64, frac float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	if frac <= 0 {
		min := math.Inf(1)
		for _, r := range ratios {
			if r < min {
				min = r
			}
		}
		return min
	}
	idx := make([]int, len(ratios))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ratios[idx[a]] < ratios[idx[b]] })
	total := 0.0
	for _, l := range loads {
		total += l
	}
	budget := frac * total
	acc := 0.0
	for _, i := range idx {
		acc += loads[i]
		if acc > budget {
			return ratios[i]
		}
	}
	return ratios[idx[len(idx)-1]]
}

// neighborhoods hands out each node's reach neighborhood: the ids a
// spatial query of the given reach around its home-point reports, the
// node itself included, in the index's order. Where the reach exceeds
// the torus diameter, every query reports the whole index in one order
// that does not depend on the query point, so that list is taken once,
// with each id's position in it, and no node's neighborhood is
// gathered or copied again.
type neighborhoods struct {
	ix    *spatial.Index
	homes []geom.Point
	reach float64
	// all is the whole index in query order, and pos[id] the position
	// of id in it, where the reach covers the torus; both nil otherwise.
	all []int32
	pos []int32
	// buf is the query scratch outside that regime.
	buf []int32
}

func newNeighborhoods(homes []geom.Point, reach float64) neighborhoods {
	nb := neighborhoods{ix: spatial.New(homes, reach), homes: homes, reach: reach}
	if reach > geom.MaxDist {
		nb.all = nb.ix.AppendWithin(make([]int32, 0, len(homes)), geom.Point{}, reach)
		nb.pos = make([]int32, len(homes))
		for p, id := range nb.all {
			nb.pos[id] = int32(p)
		}
	}
	return nb
}

// complete reports whether every node lies within reach of every other.
func (nb *neighborhoods) complete() bool { return nb.all != nil }

// of returns node i's neighborhood and the position of i in it; a
// query reports its own point, so i is always there. The slice is
// shared: read it before the next call, and do not modify it.
func (nb *neighborhoods) of(i int) ([]int32, int) {
	if nb.all != nil {
		return nb.all, int(nb.pos[i])
	}
	nb.buf = nb.ix.AppendWithin(nb.buf[:0], nb.homes[i], nb.reach)
	return nb.buf, slices.Index(nb.buf, int32(i))
}
