package spatial

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"hybridcap/internal/geom"
)

func randomPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func bruteWithin(pts []geom.Point, q geom.Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if geom.Dist(q, p) <= r {
			out = append(out, i)
		}
	}
	return out
}

// within returns AppendWithin's ids as ints, for comparison with the
// brute-force oracle.
func within(ix *Index, q geom.Point, r float64) []int {
	var out []int
	for _, id := range ix.AppendWithin(nil, q, r) {
		out = append(out, int(id))
	}
	return out
}

func TestWithinMatchesBruteForce(t *testing.T) {
	pts := randomPoints(500, 1)
	ix := New(pts, 0.05)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		q := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		r := rng.Float64() * 0.3
		got := within(ix, q, r)
		want := bruteWithin(pts, q, r)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: AppendWithin(%v, %v) size %d, brute %d", trial, q, r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: AppendWithin mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestWithinLargeRadiusCoversAll(t *testing.T) {
	pts := randomPoints(100, 3)
	ix := New(pts, 0.1)
	got := ix.AppendWithin(nil, geom.Point{X: 0.5, Y: 0.5}, geom.MaxDist+0.01)
	if len(got) != len(pts) {
		t.Errorf("radius > MaxDist returned %d of %d points", len(got), len(pts))
	}
}

// Past the torus diameter every point lies within the radius of every
// query, and AppendWithin must report them all in one order that does
// not depend on the query point: the two-hop and D2D baselines take
// that list once per evaluation in place of one query per node.
func TestWithinPastDiameterIgnoresQuery(t *testing.T) {
	clustered := randomPoints(300, 6)
	for i := range clustered {
		clustered[i] = geom.Point{X: clustered[i].X * 0.05, Y: clustered[i].Y * 0.05}
	}
	lattice := randomPoints(300, 7)
	for i := range lattice {
		lattice[i] = geom.Point{X: math.Floor(lattice[i].X*16) / 16, Y: math.Floor(lattice[i].Y*16) / 16}
	}
	sets := map[string][]geom.Point{"uniform": randomPoints(500, 5), "clustered": clustered, "lattice": lattice}
	for _, name := range []string{"uniform", "clustered", "lattice"} {
		pts := sets[name]
		rng := rand.New(rand.NewSource(8))
		queries := []geom.Point{{}, {X: 0.5, Y: 0.5}, {X: math.Nextafter(1, 0), Y: math.Nextafter(1, 0)}, pts[0]}
		for i := 0; i < 50; i++ {
			queries = append(queries, geom.Point{X: rng.Float64(), Y: rng.Float64()}, pts[rng.Intn(len(pts))])
		}
		for _, side := range []float64{0, 0.05, 1.0 / 16, 0.3, 1.43} {
			ix := New(pts, side)
			for _, r := range []float64{math.Nextafter(geom.MaxDist, 1), 1, 1.43, math.Inf(1)} {
				want := ix.AppendWithin(nil, queries[0], r)
				seen := make([]bool, len(pts))
				for _, id := range want {
					seen[id] = true
				}
				if len(want) != len(pts) || slices.Contains(seen, false) {
					t.Fatalf("%s side=%v r=%v: %d ids, not every point once", name, side, r, len(want))
				}
				for _, q := range queries[1:] {
					if got := ix.AppendWithin(nil, q, r); !slices.Equal(got, want) {
						t.Fatalf("%s side=%v r=%v: query %v reports another order than %v", name, side, r, q, queries[0])
					}
				}
			}
		}
	}
}

func TestWithinWrapsTorus(t *testing.T) {
	pts := []geom.Point{{X: 0.99, Y: 0.99}, {X: 0.5, Y: 0.5}}
	ix := New(pts, 0.1)
	got := ix.AppendWithin(nil, geom.Point{X: 0.01, Y: 0.01}, 0.05)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("wrap query returned %v, want [0]", got)
	}
}

func TestCountWithin(t *testing.T) {
	pts := randomPoints(300, 4)
	ix := New(pts, 0)
	q := geom.Point{X: 0.3, Y: 0.7}
	if got, want := len(ix.AppendWithin(nil, q, 0.2)), len(bruteWithin(pts, q, 0.2)); got != want {
		t.Errorf("len(AppendWithin) = %d, want %d", got, want)
	}
}

func TestForEachWithinEarlyStop(t *testing.T) {
	pts := randomPoints(100, 5)
	ix := New(pts, 0)
	calls := 0
	ix.ForEachWithin(geom.Point{X: 0.5, Y: 0.5}, 1, func(int) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Errorf("early stop made %d calls, want 5", calls)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	pts := randomPoints(200, 6)
	ix := New(pts, 0.03)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		id, d := ix.Nearest(q, nil)
		bestID, best := -1, math.Inf(1)
		for i, p := range pts {
			if dd := geom.Dist(q, p); dd < best {
				best = dd
				bestID = i
			}
		}
		if id != bestID || math.Abs(d-best) > 1e-12 {
			t.Fatalf("Nearest(%v) = (%d, %v), brute (%d, %v)", q, id, d, bestID, best)
		}
	}
}

func TestNearestWithSkip(t *testing.T) {
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 0.6, Y: 0.5}}
	ix := New(pts, 0.1)
	id, _ := ix.Nearest(geom.Point{X: 0.5, Y: 0.5}, func(id int) bool { return id == 0 })
	if id != 1 {
		t.Errorf("Nearest with skip = %d, want 1", id)
	}
}

func TestNearestAllSkipped(t *testing.T) {
	pts := randomPoints(10, 8)
	ix := New(pts, 0.2)
	id, d := ix.Nearest(geom.Point{X: 0.1, Y: 0.1}, func(int) bool { return true })
	if id != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest all-skipped = (%d, %v), want (-1, +Inf)", id, d)
	}
}

func TestNearestEmptyIndex(t *testing.T) {
	ix := New(nil, 0.1)
	id, _ := ix.Nearest(geom.Point{X: 0.5, Y: 0.5}, nil)
	if id != -1 {
		t.Errorf("Nearest on empty index = %d, want -1", id)
	}
}

func TestRebuild(t *testing.T) {
	pts := randomPoints(50, 9)
	ix := New(pts, 0.1)
	moved := randomPoints(50, 10)
	ix.Rebuild(moved)
	q := moved[7]
	found := false
	ix.ForEachWithin(q, 1e-9, func(id int) bool {
		if id == 7 {
			found = true
		}
		return true
	})
	if !found {
		t.Error("Rebuild did not index moved points")
	}
}

func TestNegativeRadius(t *testing.T) {
	ix := New(randomPoints(10, 11), 0.1)
	for _, r := range []float64{-1, math.NaN()} {
		if got := ix.AppendWithin(nil, geom.Point{}, r); len(got) != 0 {
			t.Errorf("radius %v returned %v", r, got)
		}
	}
	if got := ix.AppendWithin(nil, geom.Point{}, math.Inf(1)); len(got) != 10 {
		t.Errorf("infinite radius returned %d of 10 points", len(got))
	}
}

func TestPointAccessor(t *testing.T) {
	pts := randomPoints(5, 12)
	ix := New(pts, 0.1)
	if ix.Len() != 5 {
		t.Errorf("Len = %d", ix.Len())
	}
	if ix.Point(3) != pts[3] {
		t.Error("Point accessor mismatch")
	}
}

// latticePoints returns the side x side lattice with spacing 1/side.
// With side a power of two every coordinate and squared lattice
// distance is exact, so lattice radii put points exactly on the disk.
func latticePoints(side int) []geom.Point {
	pts := make([]geom.Point, 0, side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			pts = append(pts, geom.Point{X: float64(c) / float64(side), Y: float64(r) / float64(side)})
		}
	}
	return pts
}

// Read-only queries may run concurrently, the first Nearest calls,
// which build the table, included; -race checks the build's guard.
func TestNearestConcurrentFirstCalls(t *testing.T) {
	pts := randomPoints(300, 13)
	ix := New(pts, 0.05)
	ref := New(pts, 0.05)
	qs := randomPoints(200, 14)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range qs {
				id, d := ix.Nearest(q, nil)
				if wantID, wantD := ref.nearestScan(q, nil); id != wantID || d != wantD {
					t.Errorf("Nearest(%v) = (%d, %v), doubling search (%d, %v)", q, id, d, wantID, wantD)
				}
			}
		}()
	}
	wg.Wait()
}

// soleWithin is SoleNeighbours' answer for one point and radius, read
// off ForEachWithin: the one other id within r, -1 or -2.
func soleWithin(ix *Index, i int, r float64) int32 {
	sole := int32(-1)
	ix.ForEachWithin(ix.Point(i), r, func(j int) bool {
		if j == i {
			return true
		}
		if sole == -1 {
			sole = int32(j)
			return true
		}
		sole = -2
		return false
	})
	return sole
}

// SoleNeighbours must agree with ForEachWithin at both radii, whichever
// is larger, on grids from one cell across (narrower than any
// stencil) to finer than the radius, with repeated points and after a
// rebuild to another point count.
func TestSoleNeighboursMatchesQueries(t *testing.T) {
	radii := [][2]float64{{0.05, 0.1}, {0.1, 0.05}, {0.3, 0.6}, {0.02, -1}, {math.NaN(), 0.07}, {0, 0.04}, {0.8, math.Inf(1)}}
	for _, side := range []float64{1, 0.5, 0.34, 0.25, 0.2, 0.1, 0.03} {
		for _, n := range []int{1, 2, 7, 40, 300} {
			pts := randomPoints(n, int64(n))
			for i := 3; i < n; i += 5 {
				pts[i] = pts[i-3]
			}
			ix := New(pts, side)
			for _, rebuild := range []int{0, n/2 + 1} {
				if rebuild > 0 {
					pts = randomPoints(rebuild, int64(n+1))
					ix.Rebuild(pts)
				}
				for _, r := range radii {
					na, nb := ix.SoleNeighbours(r[0], r[1])
					for i := range pts {
						if a, b := soleWithin(ix, i, r[0]), soleWithin(ix, i, r[1]); na[i] != a || nb[i] != b {
							t.Fatalf("side %v n %d radii %v point %d: SoleNeighbours %d, %d; ForEachWithin %d, %d",
								side, len(pts), r, i, na[i], nb[i], a, b)
						}
					}
				}
			}
		}
	}
}

// A Disk reports ForEachWithin's hits in its order, stopping where the
// callback does, for any radius, index side and point count, and stays
// valid after Rebuild moves the points.
func TestDiskMatchesForEachWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// collect records the hits of one query up to the stop-th, where
	// the callback returns false.
	collect := func(each func(fn func(id int) bool), stop int) []int {
		var out []int
		each(func(id int) bool {
			out = append(out, id)
			return len(out) != stop
		})
		return out
	}
	radii := []float64{0, 0.003, 0.04, 0.1, 0.35, 0.5, 0.71, 2, math.Inf(1), -1, math.NaN()}
	for _, n := range []int{1, 37, 500} {
		for _, side := range []float64{0, 0.05, 0.3} {
			ix := New(randomPoints(n, int64(n)), side)
			var disks []Disk
			var qs []geom.Point
			var rs []float64
			for k := 0; k < 40; k++ {
				q := geom.Point{X: rng.Float64(), Y: rng.Float64()}
				if k%5 == 0 {
					q = ix.Point(rng.Intn(n)) // a query on an indexed point
				}
				r := radii[k%len(radii)]
				qs, rs = append(qs, q), append(rs, r)
				disks = append(disks, ix.Disks([]geom.Point{q}, r)[0])
			}
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					ix.Rebuild(randomPoints(n+pass*13, int64(n)+99))
				}
				for k, d := range disks {
					for _, stop := range []int{1, 3, -1} {
						want := collect(func(fn func(int) bool) { ix.ForEachWithin(qs[k], rs[k], fn) }, stop)
						got := collect(func(fn func(int) bool) { ix.ForEachInDisk(d, fn) }, stop)
						if !slices.Equal(got, want) {
							t.Fatalf("n=%d side=%g pass %d q=%v r=%g stop %d: disk %v, ForEachWithin %v",
								n, side, pass, qs[k], rs[k], stop, got, want)
						}
					}
				}
			}
		}
	}
}
