// Package scheduler implements the paper's scheduling policies: the
// optimal position-based policy S* (Definition 10), greedy maximal
// protocol-model scheduling used as an ablation baseline, and the cell
// TDMA grouping of routing & scheduling scheme C (Definition 13).
package scheduler

import (
	"math"

	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/spatial"
)

// SStarPairsInto returns every node pair admitted by policy S* at the
// current positions: d_ij < RT and no other node within the guard
// radius of either endpoint. The admitted pairs are necessarily
// disjoint (a third node within RT of an endpoint would itself violate
// the guard condition), and simultaneous activation of all of them is
// protocol-feasible; Theorem 2 proves this policy capacity-optimal in
// uniformly dense networks.
//
// ix must index all n+k node positions. The result lists each pair once
// with From < To, in ascending From; Definition 10 shares the slot's
// bandwidth equally in the two directions. It is appended into buf's
// backing storage (truncated first; buf may be nil), so slot loops
// reuse one pair buffer instead of allocating a fresh result every
// slot.
//
// The test reads sole neighbours off the index: node i pairs with j
// when j is i's only neighbour within RT, each of the two has no
// neighbour within the guard radius but the other, and d_ij < RT.
// With Delta >= 0 the guard radius is at least RT, so that reduces to
// i and j being each other's sole neighbour within the guard radius at
// d_ij < RT, and one sweep at the guard radius answers it.
func SStarPairsInto(m interference.Model, ix *spatial.Index, buf []interference.Transmission) []interference.Transmission {
	out := buf[:0]
	rt2 := m.RT * m.RT
	if m.Delta >= 0 {
		_, guard := ix.SoleNeighbours(-1, m.GuardRadius())
		for i, j := range guard {
			if int(j) > i && guard[j] == int32(i) && geom.Dist2(ix.Point(i), ix.Point(int(j))) < rt2 {
				out = append(out, interference.Transmission{From: i, To: int(j)})
			}
		}
		return out
	}
	near, guard := ix.SoleNeighbours(m.RT, m.GuardRadius())
	for i, j := range near {
		// j < 0 is no candidate or a crowd; j < i was handled from
		// the other side.
		if int(j) <= i {
			continue
		}
		if g := guard[i]; g != -1 && g != j {
			continue
		}
		if g := guard[j]; g != -1 && g != int32(i) {
			continue
		}
		if geom.Dist2(ix.Point(i), ix.Point(int(j))) < rt2 {
			out = append(out, interference.Transmission{From: i, To: int(j)})
		}
	}
	return out
}

// GreedyPairs computes a maximal set of transmissions from the
// requested links that is feasible under the plain protocol model
// (receiver guard zones only against active transmitters). It is the
// natural less-strict alternative to S* used in the guard-zone
// ablation.
//
// wants lists candidate directed links in priority order; earlier links
// win conflicts.
func GreedyPairs(m interference.Model, pos []geom.Point, wants []interference.Transmission) []interference.Transmission {
	guard := m.GuardRadius()
	busy := make(map[int]bool)
	// Dynamic grids of chosen transmitter and receiver positions.
	txIx := newDynGrid(guard)
	rxIx := newDynGrid(guard)
	var out []interference.Transmission
	for _, w := range wants {
		if w.From == w.To || w.From < 0 || w.To < 0 || w.From >= len(pos) || w.To >= len(pos) {
			continue
		}
		if busy[w.From] || busy[w.To] {
			continue
		}
		pf, pt := pos[w.From], pos[w.To]
		if !m.InRange(pf, pt) {
			continue
		}
		// New receiver must be clear of every chosen transmitter.
		if txIx.anyWithin(pt, guard) {
			continue
		}
		// New transmitter must not enter the guard zone of any chosen
		// receiver.
		if rxIx.anyWithin(pf, guard) {
			continue
		}
		out = append(out, w)
		busy[w.From], busy[w.To] = true, true
		txIx.add(pf)
		rxIx.add(pt)
	}
	return out
}

// dynGrid is a small insert-only point set with range lookups, sized
// for guard-radius queries.
type dynGrid struct {
	grid  geom.Grid
	cells map[int][]geom.Point
}

func newDynGrid(radius float64) *dynGrid {
	if radius <= 0 || math.IsNaN(radius) {
		radius = 0.01
	}
	side := radius
	if side > 0.25 {
		side = 0.25
	}
	return &dynGrid{grid: geom.NewGrid(side), cells: make(map[int][]geom.Point)}
}

func (d *dynGrid) add(p geom.Point) {
	c := d.grid.CellIndexOf(p)
	d.cells[c] = append(d.cells[c], p)
}

func (d *dynGrid) anyWithin(q geom.Point, radius float64) bool {
	spanC := int(math.Ceil(radius/d.grid.CellW())) + 1
	spanR := int(math.Ceil(radius/d.grid.CellH())) + 1
	startC, countC := 0, d.grid.Cols
	if 2*spanC+1 < countC {
		qc, _ := d.grid.CellOf(q)
		startC, countC = qc-spanC, 2*spanC+1
	}
	startR, countR := 0, d.grid.Rows
	if 2*spanR+1 < countR {
		_, qr := d.grid.CellOf(q)
		startR, countR = qr-spanR, 2*spanR+1
	}
	r2 := radius * radius
	for ir := 0; ir < countR; ir++ {
		for ic := 0; ic < countC; ic++ {
			for _, p := range d.cells[d.grid.Index(startC+ic, startR+ir)] {
				if geom.Dist2(p, q) < r2 {
					return true
				}
			}
		}
	}
	return false
}

// NearestNeighborWants builds the natural candidate link list for
// greedy scheduling: each node paired with its nearest neighbor within
// RT.
func NearestNeighborWants(m interference.Model, ix *spatial.Index) []interference.Transmission {
	var wants []interference.Transmission
	for i := 0; i < ix.Len(); i++ {
		j, d := ix.Nearest(ix.Point(i), func(id int) bool { return id == i })
		if j >= 0 && d <= m.RT {
			wants = append(wants, interference.Transmission{From: i, To: j})
		}
	}
	return wants
}
