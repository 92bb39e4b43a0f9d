// Package spatial provides a uniform-grid spatial index over the unit
// torus for constant-time neighborhood queries. The simulator rebuilds
// the index each slot after nodes move; queries then enumerate only the
// grid cells overlapping the query disk.
package spatial

import (
	"math"

	"hybridcap/internal/geom"
)

// Index is a grid of cells over point ids, stored flat: a counting sort
// by cell puts every cell's ids in one contiguous run of ids, in
// ascending id order, with each point copied alongside its id so a
// cell's scan reads one array. It is not safe for concurrent mutation;
// concurrent read-only queries are safe.
//
// Queries visit the cells of a window around q in a fixed row-major
// order and report a cell's hits in ascending id order; a cell the
// query disk cannot reach is skipped, which drops no hit and so leaves
// the reported sequence, and where a callback stops it, unchanged.
type Index struct {
	grid geom.Grid
	// start[c]..start[c+1] is cell c's run of ids and cpts.
	start []int32
	ids   []int32
	cpts  []geom.Point
	// cell is Rebuild's scratch: the cell of each point.
	cell []int32
	pts  []geom.Point
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

// Rebuild repopulates the index with a new point set, reusing its
// storage: once it has held as many points, it allocates nothing. The
// slice is retained; callers must not mutate it while querying.
func (ix *Index) Rebuild(pts []geom.Point) {
	ix.pts = pts
	n := len(pts)
	if nc := ix.grid.NumCells() + 1; len(ix.start) != nc {
		ix.start = make([]int32, nc)
	} else {
		clear(ix.start)
	}
	if cap(ix.ids) < n {
		ix.ids = make([]int32, n)
		ix.cpts = make([]geom.Point, n)
		ix.cell = make([]int32, n)
	}
	ids, cpts, cell := ix.ids[:n], ix.cpts[:n], ix.cell[:n]
	ix.ids, ix.cpts, ix.cell = ids, cpts, cell
	start := ix.start
	for i, p := range pts {
		c := int32(ix.grid.CellIndexOf(p))
		cell[i] = c
		start[c]++
	}
	// start[c] becomes the end of cell c's run; filling each run back to
	// front, in descending id order, then leaves start[c] at its
	// beginning and the run in ascending order.
	for c := 1; c < len(start)-1; c++ {
		start[c] += start[c-1]
	}
	for i := n - 1; i >= 0; i-- {
		c := cell[i]
		start[c]--
		k := start[c]
		ids[k], cpts[k] = int32(i), pts[i]
	}
	start[len(start)-1] = int32(n)
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// Point returns the location of point id.
func (ix *Index) Point(id int) geom.Point { return ix.pts[id] }

// window is a query's cell window: cols columns from col and rows rows
// from row, wrapped, visited row-major. Each side spans the cells a
// disk of the query radius can touch plus one, or the whole grid where
// that would wrap onto itself, so no cell is visited twice. The
// remaining fields feed axisGap: dc and dr are the first column's and
// row's offsets from q's cell, fx and fy q's distances past its cell's
// low edges, and sw and sh the cell sides. On a clamped axis the
// offsets are not torus offsets, so its side and distance are zero and
// every gap along it is zero.
type window struct {
	col, row, cols, rows int
	dc, dr               int
	sw, sh, fx, fy       float64
}

func (ix *Index) window(q geom.Point, radius float64) window {
	g := ix.grid
	cw, ch := g.CellW(), g.CellH()
	qc, qr := g.CellOf(q)
	// Past 1 every window spans the whole grid; the cap keeps an
	// infinite radius from overflowing the spans.
	radius = min(radius, 1)
	spanC := int(math.Ceil(radius/cw)) + 1
	spanR := int(math.Ceil(radius/ch)) + 1
	w := window{cols: 2*spanC + 1, rows: 2*spanR + 1, dc: -spanC, dr: -spanR}
	if w.cols > g.Cols {
		w.col, w.cols = 0, g.Cols
	} else {
		w.col = qc - spanC
		if w.col < 0 {
			w.col += g.Cols
		}
		w.sw, w.fx = cw, geom.Wrap(q.X)-float64(qc)*cw
	}
	if w.rows > g.Rows {
		w.row, w.rows = 0, g.Rows
	} else {
		w.row = qr - spanR
		if w.row < 0 {
			w.row += g.Rows
		}
		w.sh, w.fy = ch, geom.Wrap(q.Y)-float64(qr)*ch
	}
	return w
}

// axisGap bounds from below the distance along one axis from q to any
// point of the cell d cells past q's own, where side is the cell side
// and f is q's distance past its own cell's low edge. It is the
// unwrapped distance, which in a window that does not wrap onto itself
// is the torus distance: the cell's other images lie at least as far.
func axisGap(d int, side, f float64) float64 {
	if d > 0 {
		return float64(d)*side - f
	}
	if d < 0 {
		return float64(-1-d)*side + f
	}
	return 0
}

// ForEachWithin calls fn for every point id within torus distance radius
// of q (inclusive); a negative or NaN radius reports nothing. Iteration
// stops early if fn returns false. The point q itself is reported if it
// is in the index; points, like q, must honor the [0,1) coordinate
// invariant.
func (ix *Index) ForEachWithin(q geom.Point, radius float64, fn func(id int) bool) {
	if !(radius >= 0) {
		return
	}
	r2 := radius * radius
	lim := r2 + insideMargin
	w := ix.window(q, radius)
	start, ids, cpts := ix.start, ix.ids, ix.cpts
	gridC, gridR := ix.grid.Cols, ix.grid.Rows
	row := w.row
	for ir := 0; ir < w.rows; ir++ {
		gy := axisGap(w.dr+ir, w.sh, w.fy)
		if gy2 := gy * gy; gy2 <= lim {
			base, col := row*gridC, w.col
			for ic := 0; ic < w.cols; ic++ {
				if gx := axisGap(w.dc+ic, w.sw, w.fx); gx*gx+gy2 <= lim {
					c := base + col
					for k := start[c]; k < start[c+1]; k++ {
						if geom.Dist2Unit(q, cpts[k]) <= r2 {
							if !fn(int(ids[k])) {
								return
							}
						}
					}
				}
				if col++; col == gridC {
					col = 0
				}
			}
		}
		if row++; row == gridR {
			row = 0
		}
	}
}

// AppendWithin appends to dst the ids ForEachWithin reports for the same
// query, in the same order, and returns the extended slice. A cell that
// lies certainly inside the disk is appended whole, without a distance
// test per point; boundary cells keep ForEachWithin's exact test. With
// a reach near the torus diameter the whole index is a handful of bulk
// copies, where ForEachWithin pays a call and a distance per point.
func (ix *Index) AppendWithin(dst []int32, q geom.Point, radius float64) []int32 {
	if !(radius >= 0) {
		return dst
	}
	r2 := radius * radius
	lim, inner := r2+insideMargin, r2-insideMargin
	w := ix.window(q, radius)
	cw, ch := ix.grid.CellW(), ix.grid.CellH()
	start, ids, cpts := ix.start, ix.ids, ix.cpts
	gridC, gridR := ix.grid.Cols, ix.grid.Rows
	row := w.row
	for ir := 0; ir < w.rows; ir++ {
		gy := axisGap(w.dr+ir, w.sh, w.fy)
		if gy2 := gy * gy; gy2 <= lim {
			by := axisBound(q.Y, (float64(row)+0.5)*ch, ch)
			base, col := row*gridC, w.col
			for ic := 0; ic < w.cols; ic++ {
				c := base + col
				lo, hi := start[c], start[c+1]
				if gx := axisGap(w.dc+ic, w.sw, w.fx); lo < hi && gx*gx+gy2 <= lim {
					if bx := axisBound(q.X, (float64(col)+0.5)*cw, cw); bx*bx+by*by <= inner {
						dst = append(dst, ids[lo:hi]...)
					} else {
						for k := lo; k < hi; k++ {
							if geom.Dist2Unit(q, cpts[k]) <= r2 {
								dst = append(dst, ids[k])
							}
						}
					}
				}
				if col++; col == gridC {
					col = 0
				}
			}
		}
		if row++; row == gridR {
			row = 0
		}
	}
	return dst
}

// insideMargin is the slack, in squared distance, by which a cell must
// clear the query circle before a query treats it wholesale: its
// farthest corner inside it, for AppendWithin's whole-cell append, or
// its nearest edge outside it, for the skip of a cell no hit can lie
// in. It dwarfs the few-ulp rounding of Dist2Unit and of the cell
// bounds, so neither shortcut changes what the exact per-point test
// would report.
const insideMargin = 1e-12

// axisBound bounds the torus distance along one axis from q to any
// coordinate in the cell of the given centre and side; q and centre
// lie in [0,1).
func axisBound(q, centre, side float64) float64 {
	b := math.Abs(geom.DeltaUnit(q, centre)) + side/2
	if b > 0.5 {
		b = 0.5
	}
	return b
}

// Nearest returns the id of the point closest to q and its distance,
// excluding ids for which skip returns true. It returns id = -1 if the
// index is empty or all points are skipped. skip may be nil.
func (ix *Index) Nearest(q geom.Point, skip func(id int) bool) (id int, dist float64) {
	id = -1
	best := math.Inf(1)
	// Double the search radius until the best hit lies within it: a
	// scan of radius r reports every point within r, so no unreported
	// point can be closer than that hit.
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
			break
		}
		radius *= 2
	}
	if id < 0 {
		return -1, math.Inf(1)
	}
	return id, math.Sqrt(best)
}
