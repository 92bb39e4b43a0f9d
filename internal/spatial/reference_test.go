package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridcap/internal/geom"
)

// referenceIndex is the bucket-per-cell index the flat layout replaced:
// one appended id slice per cell and a cell window walked through
// Grid.Index, every cell scanned. Its query sequences are the contract
// the flat index must reproduce bit for bit.
type referenceIndex struct {
	grid  geom.Grid
	cells [][]int32
	pts   []geom.Point
}

func newReferenceIndex(g geom.Grid, pts []geom.Point) *referenceIndex {
	ref := &referenceIndex{grid: g, cells: make([][]int32, g.NumCells()), pts: pts}
	for i, p := range pts {
		c := g.CellIndexOf(p)
		ref.cells[c] = append(ref.cells[c], int32(i))
	}
	return ref
}

func (ref *referenceIndex) forEachWithin(q geom.Point, radius float64, fn func(id int) bool) {
	if radius < 0 {
		return
	}
	r2 := radius * radius
	cw, ch := ref.grid.CellW(), ref.grid.CellH()
	qc, qr := ref.grid.CellOf(q)
	spanC := int(math.Ceil(radius/cw)) + 1
	spanR := int(math.Ceil(radius/ch)) + 1
	startC, countC := qc-spanC, 2*spanC+1
	if countC > ref.grid.Cols {
		startC, countC = 0, ref.grid.Cols
	}
	startR, countR := qr-spanR, 2*spanR+1
	if countR > ref.grid.Rows {
		startR, countR = 0, ref.grid.Rows
	}
	for ir := 0; ir < countR; ir++ {
		for ic := 0; ic < countC; ic++ {
			for _, id := range ref.cells[ref.grid.Index(startC+ic, startR+ir)] {
				if geom.Dist2Unit(q, ref.pts[id]) <= r2 {
					if !fn(int(id)) {
						return
					}
				}
			}
		}
	}
}

func (ref *referenceIndex) nearest(q geom.Point, skip func(id int) bool) (id int, dist float64) {
	id = -1
	best := math.Inf(1)
	radius := math.Max(ref.grid.CellW(), ref.grid.CellH())
	for radius <= 2*geom.MaxDist {
		ref.forEachWithin(q, radius, func(cand int) bool {
			if skip != nil && skip(cand) {
				return true
			}
			if d := geom.Dist2(q, ref.pts[cand]); d < best {
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

// collect gathers a forEachWithin-style query's ids in order, stopping
// after limit hits when limit > 0.
func collect(each func(geom.Point, float64, func(int) bool), q geom.Point, r float64, limit int) []int32 {
	var out []int32
	each(q, r, func(id int) bool {
		out = append(out, int32(id))
		return limit <= 0 || len(out) < limit
	})
	return out
}

func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// edgePoints puts points on, and one ulp either side of, the first
// cell edges of g along both axes, plus the last representable
// coordinate below 1.
func edgePoints(g geom.Grid) []geom.Point {
	below1 := math.Nextafter(1, 0)
	xs := []float64{below1}
	for k := 0; k < g.Cols && k < 6; k++ {
		e := float64(k) * g.CellW()
		xs = append(xs, e, float64(k)/float64(g.Cols), math.Nextafter(e, 1))
		if k > 0 {
			xs = append(xs, math.Nextafter(e, 0))
		}
	}
	pts := make([]geom.Point, 0, len(xs)*len(xs))
	for _, y := range xs {
		for _, x := range xs {
			pts = append(pts, geom.Point{X: x, Y: y})
		}
	}
	return pts
}

// checkAgainstReference compares every query of ix with a reference
// index over the same grid and points: ForEachWithin's ids in order,
// with and without an early stop, AppendWithin's ids appended after
// what dst already holds, and Nearest's id and distance bits with and
// without a skip.
func checkAgainstReference(t *testing.T, name string, ix *Index, queries []geom.Point, radii []float64) {
	t.Helper()
	ref := newReferenceIndex(ix.grid, ix.pts)
	skip := func(id int) bool { return id%3 == 0 }
	prefix := []int32{-7, -8}
	for _, q := range queries {
		for _, r := range radii {
			want := collect(ref.forEachWithin, q, r, 0)
			if got := collect(ix.ForEachWithin, q, r, 0); !sameIDs(got, want) {
				t.Fatalf("%s q=%v r=%v: ForEachWithin %v, reference %v", name, q, r, got, want)
			}
			for _, k := range []int{1, 3} {
				want := collect(ref.forEachWithin, q, r, k)
				if got := collect(ix.ForEachWithin, q, r, k); !sameIDs(got, want) {
					t.Fatalf("%s q=%v r=%v: ForEachWithin stopped after %d gave %v, reference %v", name, q, r, k, got, want)
				}
			}
			got := ix.AppendWithin(append([]int32(nil), prefix...), q, r)
			if !sameIDs(got[:2], prefix) || !sameIDs(got[2:], want) {
				t.Fatalf("%s q=%v r=%v: AppendWithin after %v gave %v, reference %v", name, q, r, prefix, got, want)
			}
		}
		for _, s := range []func(int) bool{nil, skip} {
			id, d := ix.Nearest(q, s)
			wantID, wantD := ref.nearest(q, s)
			if id != wantID || math.Float64bits(d) != math.Float64bits(wantD) {
				t.Fatalf("%s q=%v skip=%v: Nearest (%d, %v), reference (%d, %v)", name, q, s != nil, id, d, wantID, wantD)
			}
		}
	}
}

// The flat, pruned index must reproduce the bucket index's query
// sequences exactly: on random, lattice and cell-edge points, over
// 1x1 to 5x5 grids whose windows clamp and finely divided ones that do
// not, with queries at the torus seam and on cell corners, and radii
// from below one cell to past the torus diameter, including cell
// multiples and one ulp either side of them.
func TestIndexMatchesReference(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	uniform := randomPoints(700, 21)
	// Coincident points tie on distance and cell.
	uniform = append(uniform, uniform[5], uniform[5], uniform[100])
	// Side 1/32 puts every lattice point on a cell corner.
	sides := []float64{2, 1, 0.5, 1.0 / 3, 0.25, 0.2, 0.07, 1.0 / 32, 0.02}
	rng := rand.New(rand.NewSource(22))
	cols := map[int]bool{}
	for _, side := range sides {
		sets := []struct {
			name string
			pts  []geom.Point
		}{
			{"uniform", uniform},
			{"lattice", latticePoints(32)},
			{"edges", edgePoints(geom.NewGrid(side))},
		}
		for _, set := range sets {
			ix := New(set.pts, side)
			g := ix.grid
			cols[g.Cols] = true
			queries := []geom.Point{
				{X: 0, Y: 0}, {X: below1, Y: below1}, {X: 0, Y: below1}, {X: below1, Y: 0.5},
				{X: 0.5, Y: 0.5}, set.pts[len(set.pts)/3], set.pts[len(set.pts)-1],
			}
			for c := 0; c <= g.Cols && c < 4; c++ {
				e := float64(c) * g.CellW()
				queries = append(queries, geom.Point{X: e, Y: g.CellH()}.Wrapped(),
					geom.Point{X: math.Nextafter(e, 0), Y: e}.Wrapped())
			}
			for i := 0; i < 12; i++ {
				queries = append(queries, geom.Point{X: rng.Float64(), Y: rng.Float64()})
			}
			radii := []float64{0, g.CellW() / 3, 1.5 * g.CellW(), 0.125, 0.25, 0.5, 5.0 / 32, 0.7,
				math.Sqrt(5) / 32, geom.MaxDist, math.Nextafter(geom.MaxDist, 0), 0.75, 1.43, 3}
			for k := 1; k <= 3; k++ {
				m := float64(k) * g.CellW()
				radii = append(radii, m, math.Nextafter(m, 0), math.Nextafter(m, 1))
			}
			for i := 0; i < 8; i++ {
				radii = append(radii, rng.Float64()*0.8)
			}
			checkAgainstReference(t, set.name+" "+g.String(), ix, queries, radii)
		}
	}
	for _, c := range []int{1, 2, 3, 4, 5, 50} {
		if !cols[c] {
			t.Errorf("grid shapes covered %v, want %dx%d among them", cols, c, c)
		}
	}
}

// Rebuild with more points than the index has held, then fewer, must
// answer every query as a freshly built reference does.
func TestRebuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix := New(randomPoints(300, 24), 0.05)
	for _, n := range []int{300, 900, 120, 900, 0} {
		pts := randomPoints(n, int64(25+n))
		ix.Rebuild(pts)
		if ix.Len() != n {
			t.Fatalf("Len after Rebuild with %d points = %d", n, ix.Len())
		}
		var queries []geom.Point
		for i := 0; i < 10; i++ {
			queries = append(queries, geom.Point{X: rng.Float64(), Y: rng.Float64()})
		}
		checkAgainstReference(t, "rebuild", ix, queries, []float64{0.01, 0.05, 0.11, 0.4})
	}
}

// A rebuild over as many points as the index already holds reuses its
// storage outright, however the points fall into cells; per-cell
// buckets would reallocate whenever a cell outgrew its capacity.
func TestRebuildAllocationFree(t *testing.T) {
	sets := make([][]geom.Point, 60)
	for i := range sets {
		sets[i] = randomPoints(256, int64(100+i))
	}
	ix := New(sets[0], 0.0375)
	next := 0
	allocs := testing.AllocsPerRun(50, func() {
		next++
		ix.Rebuild(sets[next])
	})
	if allocs != 0 {
		t.Errorf("Rebuild allocates %v times per call, want 0", allocs)
	}
}

// Nearest's table belongs to the point set it was built over: after a
// Rebuild with other points, and another count of them, Nearest must
// answer from the new points as a freshly built reference does.
func TestNearestAfterRebuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ix := New(randomPoints(200, 27), 0.04)
	for _, n := range []int{200, 350, 60} {
		if n != ix.Len() {
			ix.Rebuild(randomPoints(n, int64(28+n)))
		}
		var queries []geom.Point
		for i := 0; i < 200; i++ {
			queries = append(queries, geom.Point{X: rng.Float64(), Y: rng.Float64()})
		}
		checkAgainstReference(t, fmt.Sprintf("rebuild to %d", n), ix, queries, nil)
		if !ix.near.ok {
			t.Fatalf("%d points: Nearest built no table", n)
		}
	}
}

// A cluster far smaller than the torus would give every far cell most
// of the cluster as candidates; the table build stops at its budget
// and Nearest answers by the doubling search.
func TestNearestClusterFallsBack(t *testing.T) {
	pts := randomPoints(2000, 32)
	for i := range pts {
		pts[i].X *= 0.01
		pts[i].Y *= 0.01
	}
	ix := New(pts, 0.001)
	checkAgainstReference(t, "cluster", ix, randomPoints(50, 33), nil)
	if ix.near.ok {
		t.Errorf("table over a %v grid of a 0.01-wide cluster kept %d entries", ix.grid, len(ix.near.ids))
	}
}

// Among points at exactly the same distance Nearest reports the one
// its doubling scan reaches first in row-major cell order, here the
// higher id: a lower-id rule would answer 0.
func TestNearestTieGoesToScanOrder(t *testing.T) {
	for _, pts := range [][]geom.Point{
		{{X: 0.5, Y: 0.6875}, {X: 0.5, Y: 0.3125}},
		{{X: 0.6875, Y: 0.5}, {X: 0.3125, Y: 0.5}},
	} {
		ix := New(pts, 0.125)
		q := geom.Point{X: 0.5, Y: 0.5}
		ref := newReferenceIndex(ix.grid, pts)
		id, d := ix.Nearest(q, nil)
		wantID, wantD := ref.nearest(q, nil)
		if wantID != 1 {
			t.Fatalf("reference winner %d among %v, want the higher id 1", wantID, pts)
		}
		if id != wantID || d != wantD {
			t.Errorf("Nearest among %v = (%d, %v), reference (%d, %v)", pts, id, d, wantID, wantD)
		}
	}
}

// Every cell's row of Nearest's table lists the brute-force nearest
// point of every point in the cell: random points, the cell's corners
// and its centre, over uniform, lattice and coincident point sets on
// grids from 1x1 up.
func TestNearestTableCoversCells(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	uniform := randomPoints(300, 30)
	uniform = append(uniform, uniform[7], uniform[7])
	for _, side := range []float64{1, 0.5, 1.0 / 3, 0.1, 0.03, 1.0 / 64} {
		for _, pts := range [][]geom.Point{uniform, latticePoints(16), randomPoints(3, 31)} {
			ix := New(pts, side)
			ix.Nearest(geom.Point{}, nil)
			if !ix.near.ok {
				t.Fatalf("side %v, %d points: Nearest built no table", side, len(pts))
			}
			g := ix.grid
			cw, ch := g.CellW(), g.CellH()
			for c := 0; c < g.NumCells(); c++ {
				col, row := g.ColRow(c)
				x0, y0 := float64(col)*cw, float64(row)*ch
				list := ix.near.ids[ix.near.start[c]:ix.near.start[c+1]]
				probes := []geom.Point{{X: x0, Y: y0}, {X: x0 + cw/2, Y: y0 + ch/2},
					{X: math.Nextafter(x0+cw, 0), Y: math.Nextafter(y0+ch, 0)}}
				for i := 0; i < 20; i++ {
					probes = append(probes, geom.Point{X: x0 + rng.Float64()*cw, Y: y0 + rng.Float64()*ch})
				}
				for _, q := range probes {
					if g.CellIndexOf(q) != c {
						continue
					}
					best := math.Inf(1)
					for _, p := range pts {
						best = min(best, geom.Dist2(q, p))
					}
					for i, p := range pts {
						if geom.Dist2(q, p) == best && !slices.Contains(list, int32(i)) {
							t.Fatalf("%v, %d points: cell %d's list %v lacks point %d, nearest to %v", g, len(pts), c, list, i, q)
						}
					}
				}
			}
		}
	}
}
