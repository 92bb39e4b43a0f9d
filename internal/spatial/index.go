// Package spatial provides a uniform-grid spatial index over the unit
// torus for constant-time neighborhood queries. The simulator rebuilds
// the index each slot after nodes move; queries then enumerate only the
// grid cells overlapping the query disk.
package spatial

import (
	"math"

	"hybridcap/internal/geom"
)

// Index is a bucket grid over point ids. It is not safe for concurrent
// mutation; concurrent read-only queries are safe.
type Index struct {
	grid  geom.Grid
	cells [][]int32
	pts   []geom.Point
}

// New builds an index over pts with grid cells of roughly the given
// side. A good cell side is the typical query radius; queries then touch
// O(1) cells. If side is zero or negative a default derived from the
// point count is used (about one point per cell).
func New(pts []geom.Point, side float64) *Index {
	if side <= 0 || math.IsNaN(side) {
		n := len(pts)
		if n < 1 {
			n = 1
		}
		side = 1 / math.Sqrt(float64(n))
	}
	// Cap the number of cells to stay memory-proportional to the data.
	minSide := 1 / math.Sqrt(4*float64(len(pts))+16)
	if side < minSide {
		side = minSide
	}
	ix := &Index{grid: geom.NewGrid(side)}
	ix.Rebuild(pts)
	return ix
}

// Rebuild repopulates the index with a new point set, reusing bucket
// storage where possible. The slice is retained; callers must not mutate
// it while querying.
func (ix *Index) Rebuild(pts []geom.Point) {
	ix.pts = pts
	nc := ix.grid.NumCells()
	if ix.cells == nil || len(ix.cells) != nc {
		ix.cells = make([][]int32, nc)
	} else {
		for i := range ix.cells {
			ix.cells[i] = ix.cells[i][:0]
		}
	}
	for i, p := range pts {
		c := ix.grid.CellIndexOf(p)
		ix.cells[c] = append(ix.cells[c], int32(i))
	}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// Point returns the location of point id.
func (ix *Index) Point(id int) geom.Point { return ix.pts[id] }

// ForEachWithin calls fn for every point id within torus distance radius
// of q (inclusive). Iteration stops early if fn returns false. The point
// q itself is reported if it is in the index.
func (ix *Index) ForEachWithin(q geom.Point, radius float64, fn func(id int) bool) {
	if radius < 0 {
		return
	}
	r2 := radius * radius
	cw, ch := ix.grid.CellW(), ix.grid.CellH()
	qc, qr := ix.grid.CellOf(q)
	spanC := int(math.Ceil(radius/cw)) + 1
	spanR := int(math.Ceil(radius/ch)) + 1
	// Visit each cell at most once even when the query disk wraps all the
	// way around the torus.
	startC, countC := qc-spanC, 2*spanC+1
	if countC > ix.grid.Cols {
		startC, countC = 0, ix.grid.Cols
	}
	startR, countR := qr-spanR, 2*spanR+1
	if countR > ix.grid.Rows {
		startR, countR = 0, ix.grid.Rows
	}
	for ir := 0; ir < countR; ir++ {
		for ic := 0; ic < countC; ic++ {
			cell := ix.grid.Index(startC+ic, startR+ir)
			for _, id := range ix.cells[cell] {
				if geom.Dist2Unit(q, ix.pts[id]) <= r2 {
					if !fn(int(id)) {
						return
					}
				}
			}
		}
	}
}

// AppendWithin appends to dst the ids ForEachWithin reports for the same
// query, in the same order, and returns the extended slice (points,
// like q, must honor the [0,1) coordinate invariant). A cell that
// lies certainly inside the disk is appended whole, without a distance
// test per point; boundary cells keep ForEachWithin's exact test. With
// a reach near the torus diameter the whole index is a handful of bulk
// copies, where ForEachWithin pays a call and a distance per point.
func (ix *Index) AppendWithin(dst []int32, q geom.Point, radius float64) []int32 {
	if radius < 0 {
		return dst
	}
	r2 := radius * radius
	inner := r2 - insideMargin
	// The same cell window as ForEachWithin, which keeps its own copy
	// so the slot loops' per-query cost does not grow by a call.
	cw, ch := ix.grid.CellW(), ix.grid.CellH()
	qc, qr := ix.grid.CellOf(q)
	spanC := int(math.Ceil(radius/cw)) + 1
	spanR := int(math.Ceil(radius/ch)) + 1
	startC, countC := qc-spanC, 2*spanC+1
	if countC > ix.grid.Cols {
		startC, countC = 0, ix.grid.Cols
	}
	startR, countR := qr-spanR, 2*spanR+1
	if countR > ix.grid.Rows {
		startR, countR = 0, ix.grid.Rows
	}
	for ir := 0; ir < countR; ir++ {
		by := axisBound(q.Y, ix.grid.Center(0, startR+ir).Y, ch)
		for ic := 0; ic < countC; ic++ {
			cell := ix.grid.Index(startC+ic, startR+ir)
			ids := ix.cells[cell]
			if len(ids) == 0 {
				continue
			}
			bx := axisBound(q.X, ix.grid.Center(startC+ic, 0).X, cw)
			if bx*bx+by*by <= inner {
				dst = append(dst, ids...)
				continue
			}
			for _, id := range ids {
				if geom.Dist2Unit(q, ix.pts[id]) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// insideMargin is the slack, in squared distance, by which a cell's
// farthest corner must clear the query disk before AppendWithin skips
// its per-point test. It dwarfs the few-ulp rounding of Dist2Unit and of
// the cell bounds, so a whole-cell append never takes a point the exact
// test would drop.
const insideMargin = 1e-12

// axisBound bounds the torus distance along one axis from q to any
// coordinate in the cell of the given centre and side.
func axisBound(q, centre, side float64) float64 {
	return math.Min(0.5, math.Abs(geom.Delta(q, centre))+side/2)
}

// Nearest returns the id of the point closest to q and its distance,
// excluding ids for which skip returns true. It returns id = -1 if the
// index is empty or all points are skipped. skip may be nil.
func (ix *Index) Nearest(q geom.Point, skip func(id int) bool) (id int, dist float64) {
	id = -1
	best := math.Inf(1)
	// Expand the search radius ring by ring until a hit is found; the
	// final pass re-checks at the found distance to guarantee no closer
	// point hides in an unvisited cell corner.
	radius := math.Max(ix.grid.CellW(), ix.grid.CellH())
	for radius <= 2*geom.MaxDist {
		ix.ForEachWithin(q, radius, func(cand int) bool {
			if skip != nil && skip(cand) {
				return true
			}
			if d := geom.Dist2(q, ix.pts[cand]); d < best {
				best = d
				id = cand
			}
			return true
		})
		if id >= 0 && math.Sqrt(best) <= radius {
			// A confirmed hit within the fully-scanned radius.
			break
		}
		radius *= 2
	}
	if id < 0 {
		return -1, math.Inf(1)
	}
	return id, math.Sqrt(best)
}
