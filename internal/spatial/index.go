// Package spatial provides a uniform-grid spatial index over the unit
// torus for constant-time neighborhood queries. The simulator rebuilds
// the index each slot after nodes move; queries then enumerate only the
// grid cells the query disk can reach.
//
// Nearest without a skip function answers from a per-cell table of the
// points that can be nearest to some point of the cell, built on the
// first such query after New or Rebuild; a skip function, or an exact
// tie on the best distance, falls back to the doubling range scan that
// defines Nearest's answer.
//
// SoleNeighbours finds, for every point at once, the other point
// within a radius where there is exactly one, from one sweep over the
// nearby cell pairs; a range query per point would recompute its cell
// window each time. Disks lays out range queries around fixed centres
// once, so a query repeated after every Rebuild keeps its window.
package spatial

import (
	"math"
	"sync"

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
// query disk cannot reach is left out of the window or skipped, which
// drops no hit and so leaves the reported sequence, and where a
// callback stops it, unchanged. SoleNeighbours writes scratch the
// index owns, so it is not a read-only query.
type Index struct {
	grid geom.Grid
	// start[c]..start[c+1] is cell c's run of ids and cpts.
	start []int32
	ids   []int32
	cpts  []geom.Point
	// cell is Rebuild's scratch: the cell of each point.
	cell []int32
	pts  []geom.Point
	// nearOnce guards the lazy build of near, which Rebuild drops.
	nearOnce sync.Once
	near     nearTable
	// sole is SoleNeighbours' result storage, one entry per point for
	// each of its two radii, and stencil the half-stencil of its last
	// sweep radius stencilR; the grid never changes, so Rebuild keeps
	// both.
	sole     []int32
	stencil  []stencilRun
	stencilR float64
}

// nearTable is Nearest's per-cell candidate table:
// start[c]..start[c+1] is the run of ids, with their points alongside,
// that can be nearest to some point of cell c. ok is false where the
// build ran past its budget and Nearest keeps the doubling scan.
type nearTable struct {
	ok    bool
	start []int32
	ids   []int32
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

// Rebuild repopulates the index with a new point set, reusing its
// storage: once it has held as many points, it allocates nothing. It
// drops Nearest's table, which the next unskipped Nearest rebuilds. The
// slice is retained; callers must not mutate it while querying.
func (ix *Index) Rebuild(pts []geom.Point) {
	ix.nearOnce = sync.Once{}
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
	// beginning and the run in ascending order. The running sum stays
	// in a register rather than being read back from the cell before.
	sum := int32(0)
	for c := range start[:len(start)-1] {
		sum += start[c]
		start[c] = sum
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
// from row, wrapped, visited row-major. Along each axis it spans the
// offsets from q's cell whose lower distance bound stays within the
// query's limit, or the whole grid where a disk of the query radius
// plus one cell each way would wrap onto itself, so no cell is visited
// twice. The remaining fields feed axisGap: dc and dr are the first
// column's and row's offsets from q's cell, fx and fy q's distances
// past its cell's low edges, and sw and sh the cell sides. On a clamped
// axis the offsets are not torus offsets, so its side and distance are
// zero and every gap along it is zero.
type window struct {
	col, row, cols, rows int
	dc, dr               int
	sw, sh, fx, fy       float64
}

// window returns the window of a query of the given radius around q,
// where lim bounds the squared distance a visited cell may lie from q.
func (ix *Index) window(q geom.Point, radius, lim float64) window {
	g := ix.grid
	q = q.Wrapped()
	// Past 1 every window spans the whole grid; the cap keeps an
	// infinite radius from overflowing the spans.
	radius = min(radius, 1)
	var w window
	w.col, w.cols, w.dc, w.sw, w.fx = axisWindow(q.X, g.CellW(), g.Cols, radius, lim)
	w.row, w.rows, w.dr, w.sh, w.fy = axisWindow(q.Y, g.CellH(), g.Rows, radius, lim)
	return w
}

// axisWindow is one axis of a window: the first cell, the cell count
// and the first cell's offset from v's cell, then the side and v's
// distance past its cell's low edge for axisGap (both zero on a clamped
// axis). The offsets -span..span a disk of the radius can touch, plus
// one, are trimmed at each end to those whose gap squared is within
// lim: gaps grow with the offset's size, so what remains is one run
// around v's cell, and every cell dropped is one the per-cell test
// would skip.
func axisWindow(v, side float64, cells int, radius, lim float64) (first, count, off int, sd, f float64) {
	span := int(math.Ceil(radius/side)) + 1
	if 2*span+1 > cells {
		return 0, cells, 0, 0, 0
	}
	c := min(int(v*float64(cells)), cells-1)
	f = v - float64(c)*side
	lo, hi := -span, span
	for lo < 0 && sq(axisGap(lo, side, f)) > lim {
		lo++
	}
	for hi > 0 && sq(axisGap(hi, side, f)) > lim {
		hi--
	}
	if first = c + lo; first < 0 {
		first += cells
	}
	return first, hi - lo + 1, lo, side, f
}

func sq(x float64) float64 { return x * x }

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
	w := ix.window(q, radius, lim)
	start, ids, cpts := ix.start, ix.ids, ix.cpts
	gridC, gridR := ix.grid.Cols, ix.grid.Rows
	row := w.row
	for ir := 0; ir < w.rows; ir++ {
		gy := axisGap(w.dr+ir, w.sh, w.fy)
		gy2 := gy * gy
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
		if row++; row == gridR {
			row = 0
		}
	}
}

// Disk is a ForEachWithin query laid out once: its centre, its squared
// radius and the cells its window visits, in the same order. The cells
// depend only on the grid, which Rebuild keeps, so a Disk stays valid
// across rebuilds of the index it came from.
type Disk struct {
	q     geom.Point
	r2    float64
	cells []int32
}

// Disks lays out the query ForEachWithin(q, radius, ·) for each q of
// qs, for repeated use with ForEachInDisk; the disks share one cell
// list. A negative or NaN radius visits no cell.
func (ix *Index) Disks(qs []geom.Point, radius float64) []Disk {
	r2 := radius * radius
	lim := r2 + insideMargin
	ds := make([]Disk, len(qs))
	ws := make([]window, len(qs))
	size := 0
	for k, q := range qs {
		ds[k] = Disk{q: q, r2: r2}
		if radius >= 0 {
			ws[k] = ix.window(q, radius, lim)
			size += ws[k].rows * ws[k].cols
		}
	}
	// size bounds the cells kept, so cells never moves and each disk
	// takes its run as it is filled.
	cells := make([]int32, 0, size)
	gridC, gridR := ix.grid.Cols, ix.grid.Rows
	for k, w := range ws {
		from := len(cells)
		row := w.row
		for ir := 0; ir < w.rows; ir++ {
			gy := axisGap(w.dr+ir, w.sh, w.fy)
			gy2 := gy * gy
			base, col := row*gridC, w.col
			for ic := 0; ic < w.cols; ic++ {
				if gx := axisGap(w.dc+ic, w.sw, w.fx); gx*gx+gy2 <= lim {
					cells = append(cells, int32(base+col))
				}
				if col++; col == gridC {
					col = 0
				}
			}
			if row++; row == gridR {
				row = 0
			}
		}
		ds[k].cells = cells[from:len(cells):len(cells)]
	}
	return ds
}

// ForEachInDisk calls fn for the ids ForEachWithin reports for d's
// query, in the same order, and stops where fn returns false; d must
// come from this index.
func (ix *Index) ForEachInDisk(d Disk, fn func(id int) bool) {
	start, ids, cpts := ix.start, ix.ids, ix.cpts
	for _, c := range d.cells {
		for k := start[c]; k < start[c+1]; k++ {
			if geom.Dist2Unit(d.q, cpts[k]) <= d.r2 {
				if !fn(int(ids[k])) {
					return
				}
			}
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
	w := ix.window(q, radius, lim)
	cw, ch := ix.grid.CellW(), ix.grid.CellH()
	start, ids, cpts := ix.start, ix.ids, ix.cpts
	gridC, gridR := ix.grid.Cols, ix.grid.Rows
	row := w.row
	for ir := 0; ir < w.rows; ir++ {
		gy := axisGap(w.dr+ir, w.sh, w.fy)
		gy2 := gy * gy
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
// would report. Nearest's table takes a point as a candidate with the
// same slack, which also covers a query that rounding put in a cell it
// lies a few ulps outside.
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
//
// The answer is that of a doubling search: ForEachWithin scans of
// radius one cell side, then twice that, and so on, keeping the first
// hit of least geom.Dist2 in scan order, until the best hit lies within
// the radius scanned. Among points at exactly the same distance the one
// reported first wins: first by the pass that reaches it, then in the
// row-major cell order of that pass's window around q, ascending id
// within a cell. That is not in general the lowest id.
//
// With skip nil and q in [0,1)², Nearest reads its cell's row of a
// table, built on the first such query after New or Rebuild, that lists
// every point that can be nearest to some point of that cell, and
// compares those candidates' exact distances; the unique least is the
// doubling search's answer. A skip function, a q outside [0,1)², an
// exact tie on the least distance, or a table whose build ran past its
// budget takes the doubling search itself.
func (ix *Index) Nearest(q geom.Point, skip func(id int) bool) (id int, dist float64) {
	if skip == nil && q.X >= 0 && q.X < 1 && q.Y >= 0 && q.Y < 1 {
		ix.nearOnce.Do(ix.buildNear)
		if t := &ix.near; t.ok {
			c := ix.grid.CellIndexOf(q)
			id, best, tie := t.nearest(q, t.start[c], t.start[c+1])
			if id < 0 {
				return -1, math.Inf(1)
			}
			if !tie {
				return id, math.Sqrt(best)
			}
		}
	}
	return ix.nearestScan(q, skip)
}

// nearest returns the candidate at positions lo..hi-1 of least
// distance to q (-1 for none), that squared distance, and whether
// another candidate ties it. Both q and the candidates lie in [0,1)²,
// so geom.Dist2Unit gives geom.Dist2's bits; being non-negative, the
// distances order as their bit patterns do, so the scan keeps the
// least and the second least as integers, without a branch on the
// data.
func (t *nearTable) nearest(q geom.Point, lo, hi int32) (id int, best float64, tie bool) {
	bestB, secondB, bestID := uint64(math.MaxUint64), uint64(math.MaxUint64), int32(-1)
	for k := lo; k < hi; k++ {
		d, cand := math.Float64bits(geom.Dist2Unit(q, t.pts[k])), t.ids[k]
		secondB = min(secondB, max(bestB, d))
		if d < bestB {
			bestID = cand
		}
		bestB = min(bestB, d)
	}
	return int(bestID), math.Float64frombits(bestB), secondB == bestB
}

// nearestScan is Nearest's doubling search.
func (ix *Index) nearestScan(q geom.Point, skip func(id int) bool) (id int, dist float64) {
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

// nearBudget caps the work of a table build, in cells visited plus
// points examined, at this many per cell and point of the index. A
// uniform point set needs a fraction of it; a clustered one, whose far
// cells would each list most of the cluster, runs past it, and Nearest
// keeps the doubling search.
const nearBudget = 64

// buildNear fills Nearest's table. A point can be nearest to some
// point of a cell only if its least distance to the cell is at most
// the least, over all points, of the greatest distance to the cell.
// Each cell gathers such points from rings of cells around it, outward
// until a ring's least distance, (k-1) cell sides for ring k, clears
// that bound; both sides of the comparison get insideMargin of slack,
// so the list holds every point whose computed distance can win.
func (ix *Index) buildNear() {
	t := &ix.near
	g := ix.grid
	nc := g.NumCells()
	cw, ch := g.CellW(), g.CellH()
	step := min(cw, ch)
	// Offsets -loC..hiC and -loR..hiR reach every cell once, each by
	// its shorter way round the torus.
	loC, hiC, loR, hiR := (g.Cols-1)/2, g.Cols/2, (g.Rows-1)/2, g.Rows/2
	budget := nearBudget * (nc + len(ix.pts))
	// The table's scan measures with geom.Dist2Unit, which needs every
	// point in [0,1)²; any other point set keeps the doubling search.
	for _, p := range ix.pts {
		if !(p.X >= 0 && p.X < 1 && p.Y >= 0 && p.Y < 1) {
			budget = -1
		}
	}
	// A candidate is a position in the index's flat runs and its least
	// squared distance to the cell.
	type cand struct {
		k   int32
		lo2 float64
	}
	cands := make([]cand, 0, 64)
	// Uniform points list about four candidates per cell where cells
	// are finer than the points' spacing, and a few per point where
	// they are coarser: a first capacity that rarely regrows.
	if size := 4 * (nc + len(ix.pts)); cap(t.ids) < size {
		t.ids, t.pts = make([]int32, 0, size), make([]geom.Point, 0, size)
	}
	if cap(t.start) < nc+1 {
		t.start = make([]int32, 0, nc+1)
	}
	start, ids, pts := append(t.start[:0], 0), t.ids[:0], t.pts[:0]
	for c := 0; c < nc && budget >= 0; c++ {
		col, row := g.ColRow(c)
		x0, y0 := float64(col)*cw, float64(row)*ch
		cands = cands[:0]
		bound := math.Inf(1)
		for k := 0; k <= max(hiC, hiR); k++ {
			for dr := max(-k, -loR); dr <= min(k, hiR); dr++ {
				// Inner rows of the ring hold its two side cells only.
				dcStep := 1
				if dr != k && dr != -k {
					dcStep = 2 * k
				}
				for dc := -k; dc <= k; dc += dcStep {
					if dc < -loC || dc > hiC {
						continue
					}
					cell := g.Index(col+dc, row+dr)
					lo, hi := ix.start[cell], ix.start[cell+1]
					budget -= 1 + int(hi-lo)
					for j := lo; j < hi; j++ {
						p := ix.cpts[j]
						xlo, xhi := axisRange(p.X, x0, cw)
						ylo, yhi := axisRange(p.Y, y0, ch)
						lo2 := xlo*xlo + ylo*ylo
						bound = min(bound, xhi*xhi+yhi*yhi)
						if lo2 <= bound+insideMargin {
							cands = append(cands, cand{j, lo2})
						}
					}
				}
			}
			if r := float64(k) * step; r*r > bound+2*insideMargin {
				break
			}
		}
		for _, cd := range cands {
			if cd.lo2 <= bound+insideMargin {
				ids = append(ids, ix.ids[cd.k])
				pts = append(pts, ix.cpts[cd.k])
			}
		}
		start = append(start, int32(len(ids)))
	}
	t.start, t.ids, t.pts = start, ids, pts
	t.ok = budget >= 0
}

// axisRange returns the least and the greatest torus distance along one
// axis from v to a coordinate of the cell [a, a+w], where v and a lie
// in [0,1) and a+w is at most 1.
func axisRange(v, a, w float64) (lo, hi float64) {
	d1 := math.Abs(geom.DeltaUnit(v, a))
	d2 := math.Abs(geom.DeltaUnit(v, a+w))
	lo, hi = min(d1, d2), max(d1, d2)
	if v >= a && v <= a+w {
		lo = 0
	}
	anti := v + 0.5
	if anti >= 1 {
		anti--
	}
	if anti >= a && anti <= a+w {
		hi = 0.5
	}
	return lo, hi
}

// SoleNeighbours reports, for each point id and each of two radii, the
// point's sole neighbour within that radius: the id of the one other
// point within torus distance ra (na) or rb (nb) of it, inclusive, -1
// if there is none and -2 if there are two or more. A point at the
// same location as another is its neighbour at every radius; a
// negative or NaN radius reports no neighbours. Neighbourhood is the
// exact test ForEachWithin makes, Dist2Unit(p, q) <= r*r, which is
// symmetric to the bit, so na[i] is what counting ForEachWithin(
// Point(i), ra) hits other than i gives, and likewise nb.
//
// Each radius that reports is one sweep over every unordered pair of
// points within it: each nonempty cell against itself and against a
// half-stencil of neighbour cells, built once per radius and walked as
// runs of adjacent cells, whose points lie contiguous in the index. The
// returned slices are the index's storage, valid until the next call;
// once the index has answered for as many points, a call allocates
// nothing.
func (ix *Index) SoleNeighbours(ra, rb float64) (na, nb []int32) {
	n := len(ix.pts)
	if cap(ix.sole) < 2*n {
		ix.sole = make([]int32, 2*n)
	}
	na, nb = ix.sole[:n], ix.sole[n:2*n]
	for i := range na {
		na[i], nb[i] = -1, -1
	}
	ix.sweep(ra, na)
	ix.sweep(rb, nb)
	return na, nb
}

// sweep records in s, whose entries start at -1, each point's sole
// neighbour within radius r.
func (ix *Index) sweep(r float64, s []int32) {
	if !(r >= 0) {
		return
	}
	sw := sweep{cpts: ix.cpts, ids: ix.ids, s: s, r2: r * r}
	st := ix.halfStencil(r)
	start := ix.start
	cols, rows := ix.grid.Cols, ix.grid.Rows
	c := 0
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col, c = col+1, c+1 {
			lo, hi := start[c], start[c+1]
			if lo == hi {
				continue
			}
			// Where the row's own run does not wrap, its points follow
			// the cell's own, and one triangular pass covers both.
			runs, end := st, hi
			if len(st) > 0 && st[0].dr == 0 {
				e := col + 1 + st[0].cells
				if st[0].clipCol {
					e = min(e, cols)
				}
				if e <= cols {
					runs, end = st[1:], start[c-col+e]
				}
			}
			sw.pairs(lo, hi, lo, end, true)
			for _, run := range runs {
				rr := row + run.dr
				if rr >= rows {
					if run.clipRow {
						continue
					}
					rr -= rows
				}
				base, a := rr*cols, col+run.dc
				if run.clipCol {
					sw.pairs(lo, hi, start[base+a], start[base+cols], false)
					continue
				}
				if a < 0 {
					a += cols
				} else if a >= cols {
					a -= cols
				}
				if end := a + run.cells; end <= cols {
					sw.pairs(lo, hi, start[base+a], start[base+end], false)
				} else {
					sw.pairs(lo, hi, start[base+a], start[base+cols], false)
					sw.pairs(lo, hi, start[base], start[base+end-cols], false)
				}
			}
		}
	}
}

// sweep is one SoleNeighbours pass: the index's flat runs, the result
// it records into and its squared radius.
type sweep struct {
	cpts []geom.Point
	ids  []int32
	s    []int32
	r2   float64
}

// pairs records the pairs within r between positions k0..k1-1 and
// l0..l1-1, or with tri those within k0..k1-1 and between them and
// k1..l1-1, each pair once.
func (sw *sweep) pairs(k0, k1, l0, l1 int32, tri bool) {
	s, cpts, ids, r2 := sw.s, sw.cpts, sw.ids, sw.r2
	for k := k0; k < k1; k++ {
		p, i := cpts[k], ids[k]
		if tri {
			l0 = k + 1
		}
		for l := l0; l < l1; l++ {
			j := ids[l]
			in := geom.Dist2Unit(p, cpts[l]) <= r2
			s[i] = noteIf(s[i], j, in)
			s[j] = noteIf(s[j], i, in)
		}
	}
}

// noteIf returns a SoleNeighbours entry v after noting j where in
// holds, and v itself where it does not, without a branch on either.
func noteIf(v, j int32, in bool) int32 {
	w := int32(-2)
	if v == -1 {
		w = j
	}
	if !in {
		w = v
	}
	return w
}

// stencilRun is one entry of SoleNeighbours' half-stencil: the cells
// dr rows below a cell (modulo the grid) and dc to dc+cells-1 columns
// across, wrapping at the row's end. clipRow drops the run where the
// row offset wraps, and clipCol the part of the run that wraps.
type stencilRun struct {
	dr, dc, cells    int
	clipRow, clipCol bool
}

// halfStencil returns the half-stencil of sweep radius r, building it
// on the first call at that radius. Cells a whole offset apart, taken
// modulo the grid, are neighbours when their lower-bound gap, squared,
// is within r*r+insideMargin; the half-stencil reaches each unordered
// pair of distinct neighbour cells from exactly one of them:
//
//   - a row offset dr in (0, rows/2) reaches the neighbours dr rows
//     below from the upper cell, and rows-dr rows below is never
//     visited;
//   - an even grid's row offset rows/2 leads both ways, so only rows
//     above the middle take it (clipRow);
//   - within a row a cell takes the neighbours 1..m columns on, where
//     2m < cols keeps a column offset and its negation apart, or,
//     when the row's every column is a neighbour, the cells to its
//     right up to the row's end (clipCol).
//
// Offsets are residues, so a grid narrower than the stencil, where two
// offsets of a window would name the same cell, still visits each cell
// pair once.
func (ix *Index) halfStencil(r float64) []stencilRun {
	// Past 1 every offset is in; the cap keeps the key finite.
	r = min(r, 1)
	if ix.stencil != nil && ix.stencilR == r {
		return ix.stencil
	}
	lim := r*r + insideMargin
	g := ix.grid
	// Along one axis, cells m apart (m at most half the axis) lie at
	// least m-1 cell sides apart on the torus.
	gap := func(m int, side float64) float64 {
		if m <= 1 {
			return 0
		}
		return float64(m-1) * side
	}
	st := ix.stencil[:0]
	if cap(st) < g.Rows/2+1 {
		st = make([]stencilRun, 0, g.Rows/2+1)
	}
	for dr := 0; 2*dr <= g.Rows; dr++ {
		gy := gap(dr, g.CellH())
		if gy*gy > lim {
			break
		}
		// m is the widest column offset of row dr.
		m := 0
		for 2*(m+1) <= g.Cols {
			if gx := gap(m+1, g.CellW()); gx*gx+gy*gy > lim {
				break
			}
			m++
		}
		full := 2*m+1 >= g.Cols
		run := stencilRun{dr: dr, clipRow: dr > 0 && 2*dr == g.Rows}
		switch {
		case dr == 0 && full:
			run.dc, run.cells, run.clipCol = 1, g.Cols-1, true
		case dr == 0:
			run.dc, run.cells = 1, m
		case full:
			run.cells = g.Cols
		default:
			run.dc, run.cells = -m, 2*m+1
		}
		if run.cells > 0 {
			st = append(st, run)
		}
	}
	ix.stencil, ix.stencilR = st, r
	return st
}
