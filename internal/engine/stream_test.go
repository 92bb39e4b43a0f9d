package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cellValue is the deterministic synthetic workload shared by the
// streaming tests: a cheap pure function of the global coordinates.
func cellValue(point, seed int) float64 {
	return float64(point*31+seed*7) + float64(point%5)/8
}

// TestStreamGridOrder proves Stream delivers every cell exactly once,
// in grid order, for serial and parallel pools alike.
func TestStreamGridOrder(t *testing.T) {
	const points, seeds = 7, 5
	for _, workers := range []int{1, 4, 16} {
		var got []int
		err := Stream(context.Background(), Grid{Points: points, Seeds: seeds, Workers: workers},
			func(point, seed int) (float64, error) { return cellValue(point, seed), nil },
			func(point, seed int, out Outcome[float64]) {
				if out.Err != nil {
					t.Fatalf("workers=%d cell (%d,%d): %v", workers, point, seed, out.Err)
				}
				if out.Value != cellValue(point, seed) {
					t.Fatalf("workers=%d cell (%d,%d): value %v", workers, point, seed, out.Value)
				}
				got = append(got, point*seeds+seed)
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != points*seeds {
			t.Fatalf("workers=%d: delivered %d cells, want %d", workers, len(got), points*seeds)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: delivery %d carried cell %d", workers, i, idx)
			}
		}
	}
}

// TestStreamBoundedWindow proves the reorder window actually bounds
// run-ahead: with the fixed window of 2×Workers, no cell may be
// dispatched more than that many positions beyond the oldest
// undelivered cell.
func TestStreamBoundedWindow(t *testing.T) {
	const n = 400
	const workers = 4
	const window = 2 * workers
	var dispatched atomic.Int64
	var maxAhead atomic.Int64
	delivered := 0
	err := Stream(context.Background(), Grid{Points: n, Seeds: 1, Workers: workers},
		func(point, _ int) (int, error) {
			dispatched.Add(1)
			return point, nil
		},
		func(point, _ int, out Outcome[int]) {
			// At delivery of cell i, exactly i cells are fully delivered,
			// so dispatch may have reached at most i + 1 + window.
			ahead := dispatched.Load() - int64(delivered)
			for {
				cur := maxAhead.Load()
				if ahead <= cur || maxAhead.CompareAndSwap(cur, ahead) {
					break
				}
			}
			if int64(delivered)+1+window < dispatched.Load() {
				t.Errorf("at delivery %d: %d cells dispatched, window %d exceeded", delivered, dispatched.Load(), window)
			}
			delivered++
		})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != n {
		t.Fatalf("delivered %d cells, want %d", delivered, n)
	}
	if maxAhead.Load() > window+1 {
		t.Fatalf("max run-ahead %d exceeds window %d", maxAhead.Load(), window)
	}
}

// TestStreamCancellation pins the cancellation contract: after
// cancellation, completed cells keep their outcomes,
// undispatched cells carry PhaseCanceled-tagged context errors, and
// everything still arrives in grid order.
func TestStreamCancellation(t *testing.T) {
	const n = 64
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	var started sync.WaitGroup
	started.Add(workers)
	release := make(chan struct{})
	var once sync.Once
	completed := 0
	canceled := 0
	err := Stream(ctx, Grid{Points: n, Seeds: 1, Workers: workers},
		func(point, _ int) (int, error) {
			once.Do(func() {
				go func() {
					started.Wait()
					cancel()
					close(release)
				}()
			})
			started.Done()
			<-release
			return point, nil
		},
		func(point, _ int, out Outcome[int]) {
			if out.Err == nil {
				completed++
				return
			}
			canceled++
			if Phase(out.Err) != PhaseCanceled {
				t.Fatalf("cell %d: phase %q, want canceled", point, Phase(out.Err))
			}
			if !errors.Is(out.Err, context.Canceled) {
				t.Fatalf("cell %d: %v does not wrap context.Canceled", point, out.Err)
			}
		})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream returned %v, want context.Canceled", err)
	}
	if completed != workers {
		t.Fatalf("%d cells completed, want exactly %d (one per worker)", completed, workers)
	}
	if completed+canceled != n {
		t.Fatalf("%d cells delivered, want %d", completed+canceled, n)
	}
}

// TestStreamCanceledBeforeStart proves an already-dead context never
// invokes the cell function, yet every cell is still delivered with a
// PhaseCanceled-tagged outcome, for both the serial and the pooled
// path.
func TestStreamCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		delivered := 0
		err := Stream(ctx, Grid{Points: 5, Seeds: 2, Workers: workers},
			func(point, seed int) (int, error) {
				t.Errorf("workers=%d: cell (%d,%d) ran under a dead context", workers, point, seed)
				return 0, nil
			},
			func(point, seed int, out Outcome[int]) {
				delivered++
				if Phase(out.Err) != PhaseCanceled || !errors.Is(out.Err, context.Canceled) {
					t.Fatalf("workers=%d cell (%d,%d): %v", workers, point, seed, out.Err)
				}
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: returned %v", workers, err)
		}
		if delivered != 10 {
			t.Fatalf("workers=%d: delivered %d cells, want 10", workers, delivered)
		}
	}
}

// TestReduceMeanMatchesRun is the aggregation-parity gate: folding a
// grid through MeanAgg must reproduce a plain seed-order loop over the
// cell values bit for bit — same means, same survivor counts, same
// first failures — for every worker count, including a grid with
// failing cells.
func TestReduceMeanMatchesRun(t *testing.T) {
	const points, seeds = 9, 6
	cell := func(point, seed int) (float64, error) {
		if (point*seeds+seed)%7 == 3 {
			return 0, EvaluateErr(fmt.Errorf("cell (%d,%d) broke", point, seed))
		}
		return math.Sqrt(cellValue(point, seed) + 1), nil
	}
	type want struct {
		mean      float64
		ok        int
		firstErr  error
		firstSeed int
	}
	ref := make([]want, points)
	for p := range ref {
		ref[p].firstSeed = -1
		sum := 0.0
		for s := 0; s < seeds; s++ {
			v, err := cell(p, s)
			if err != nil {
				if ref[p].firstErr == nil {
					ref[p].firstErr, ref[p].firstSeed = err, s
				}
				continue
			}
			sum += v
			ref[p].ok++
		}
		if ref[p].ok > 0 {
			ref[p].mean = sum / float64(ref[p].ok)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		agg := NewMeanAgg(points)
		if err := Reduce(context.Background(), Grid{Points: points, Seeds: seeds, Workers: workers}, cell, agg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for p, w := range ref {
			gotMean, gotOK, gotErr, gotSeed := agg.Point(p)
			if gotMean != w.mean || gotOK != w.ok || gotSeed != w.firstSeed {
				t.Fatalf("workers=%d point %d: got (%v, %d, seed %d), want (%v, %d, seed %d)",
					workers, p, gotMean, gotOK, gotSeed, w.mean, w.ok, w.firstSeed)
			}
			if (gotErr == nil) != (w.firstErr == nil) || (gotErr != nil && gotErr.Error() != w.firstErr.Error()) {
				t.Fatalf("workers=%d point %d: firstErr %v, want %v", workers, p, gotErr, w.firstErr)
			}
			if agg.Covered(p) != seeds {
				t.Fatalf("workers=%d point %d: covered %d, want %d", workers, p, agg.Covered(p), seeds)
			}
		}
	}
}

// TestShardCoverageUnion proves the contiguous-block shard math: for
// every k, the k shards' coverage spans are non-empty-or-valid,
// contiguous, disjoint, and their union is exactly [0, n).
func TestShardCoverageUnion(t *testing.T) {
	const points, seeds = 5, 3 // n = 15
	n := points * seeds
	for k := 1; k <= n; k++ {
		prev := 0
		for j := 0; j < k; j++ {
			g := Grid{Points: points, Seeds: seeds, ShardIndex: j, ShardCount: k}
			lo, hi, err := g.Coverage()
			if err != nil {
				t.Fatalf("k=%d shard %d: %v", k, j, err)
			}
			if lo != prev {
				t.Fatalf("k=%d shard %d: starts at %d, want %d (gap or overlap)", k, j, lo, prev)
			}
			if hi < lo {
				t.Fatalf("k=%d shard %d: inverted range [%d,%d)", k, j, lo, hi)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("k=%d: union ends at %d, want %d", k, prev, n)
		}
	}
}

// TestShardStreamUnionMatchesUnsharded runs every shard of a grid
// through Stream and checks the union of deliveries reproduces the
// unsharded run exactly: same cells, same global coordinates, same
// values.
func TestShardStreamUnionMatchesUnsharded(t *testing.T) {
	const points, seeds = 6, 4
	n := points * seeds
	for _, k := range []int{1, 2, 3, 7} {
		got := make(map[int]float64, n)
		for j := 0; j < k; j++ {
			err := Stream(context.Background(),
				Grid{Points: points, Seeds: seeds, Workers: 3, ShardIndex: j, ShardCount: k},
				func(point, seed int) (float64, error) { return cellValue(point, seed), nil },
				func(point, seed int, out Outcome[float64]) {
					idx := point*seeds + seed
					if _, dup := got[idx]; dup {
						t.Fatalf("k=%d: cell %d delivered by two shards", k, idx)
					}
					got[idx] = out.Value
				})
			if err != nil {
				t.Fatalf("k=%d shard %d: %v", k, j, err)
			}
		}
		if len(got) != n {
			t.Fatalf("k=%d: union covers %d cells, want %d", k, len(got), n)
		}
		for idx, v := range got {
			if want := cellValue(idx/seeds, idx%seeds); v != want {
				t.Fatalf("k=%d cell %d: %v, want %v (global seed identity broken)", k, idx, v, want)
			}
		}
	}
}

// TestRunShardOutsideCells proves a sharded run touches only its own
// block: covered cells are evaluated, observed and delivered with their
// global coordinates, and foreign cells are never evaluated, observed
// or delivered.
func TestRunShardOutsideCells(t *testing.T) {
	const points, seeds = 4, 3
	g := Grid{Points: points, Seeds: seeds, Workers: 2, ShardIndex: 1, ShardCount: 3}
	lo, hi, err := g.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	covered := func(point, seed int) bool {
		idx := point*seeds + seed
		return idx >= lo && idx < hi
	}
	var observed int
	g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) {
		observed++
		if !covered(point, seed) {
			t.Errorf("foreign cell (%d,%d) observed", point, seed)
		}
	})
	var delivered int
	err = Stream(context.Background(), g, func(point, seed int) (float64, error) {
		if !covered(point, seed) {
			t.Errorf("foreign cell (%d,%d) evaluated", point, seed)
		}
		return cellValue(point, seed), nil
	}, func(point, seed int, out Outcome[float64]) {
		if idx := point*seeds + seed; idx != lo+delivered {
			t.Errorf("delivery %d carried cell %d, want %d", delivered, idx, lo+delivered)
		}
		delivered++
		if out.Err != nil || out.Value != cellValue(point, seed) {
			t.Errorf("covered cell (%d,%d): %+v", point, seed, out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != hi-lo || observed != hi-lo {
		t.Fatalf("%d cells delivered, %d observed, want %d", delivered, observed, hi-lo)
	}
}

// TestRunInvalidShardSpec proves a malformed shard spec is returned as
// an error before any cell runs, is observed or is delivered.
func TestRunInvalidShardSpec(t *testing.T) {
	for _, g := range []Grid{
		{Points: 2, Seeds: 2, ShardIndex: 5, ShardCount: 3},
		{Points: 2, Seeds: 2, ShardIndex: -1, ShardCount: 3},
		{Points: 2, Seeds: 2, ShardIndex: 0, ShardCount: 9},
	} {
		g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) {
			t.Fatalf("%+v: cell (%d,%d) observed under an invalid shard spec", g, point, seed)
		})
		err := Stream(context.Background(), g, func(point, seed int) (float64, error) {
			t.Errorf("%+v: cell (%d,%d) ran under an invalid shard spec", g, point, seed)
			return 0, nil
		}, func(point, seed int, out Outcome[float64]) {
			t.Fatalf("%+v: cell (%d,%d) delivered under an invalid shard spec", g, point, seed)
		})
		if err == nil {
			t.Fatalf("%+v: invalid shard spec accepted", g)
		}
	}
}

// TestEachFirstErr exercises the strict-consumer pattern: Each plus
// FirstErrAgg captures the first failure in index order while the other
// values fold as they arrive, identically for every worker count.
func TestEachFirstErr(t *testing.T) {
	const n = 50
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var agg FirstErrAgg[int]
		sum := 0
		err := Each(context.Background(), workers, n, func(i int) (int, error) {
			if i == 17 || i == 33 {
				return 0, fmt.Errorf("index %d: %w", i, boom)
			}
			return i, nil
		}, func(i int, out Outcome[int]) {
			agg.Cell(i, 0, out)
			if out.Err == nil {
				sum += out.Value
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !errors.Is(agg.Err, boom) || agg.Point != 17 {
			t.Fatalf("workers=%d: first error %v at %d, want boom at 17", workers, agg.Err, agg.Point)
		}
		want := n*(n-1)/2 - 17 - 33
		if sum != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, sum, want)
		}
	}
}

// TestStreamRetainedHeap compares a collected sweep (Stream delivering
// every outcome into a caller-owned slice held until the sweep ends)
// with the streaming path (Reduce folding into a MeanAgg) on a
// 256x1024 grid of cheap cells. The per-point means must agree bit for
// bit, and the streaming run must retain O(points) heap however many
// cells the grid has. The collected run's retained heap (about 6 MiB of
// outcomes) proves the measurement sees retained data at all.
func TestStreamRetainedHeap(t *testing.T) {
	const points, seeds = 256, 1024
	const mib = 1 << 20
	grid := Grid{Points: points, Seeds: seeds, Workers: 4}
	cell := func(point, seed int) (float64, error) { return 1 / float64(point+seed+1), nil }
	// retained reports the live heap run leaves behind: run returns a
	// closure that reads its results, called only after the second
	// measurement so everything it captures is still reachable then.
	retained := func(run func() func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		read := run()
		runtime.GC()
		runtime.ReadMemStats(&after)
		read()
		if after.HeapAlloc <= before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}

	var collectedMeans, streamMeans [points]float64
	collected := retained(func() func() {
		outs := make([]Outcome[float64], points*seeds)
		err := Stream(context.Background(), grid, cell, func(p, s int, out Outcome[float64]) {
			outs[p*seeds+s] = out
		})
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			for p := 0; p < points; p++ {
				sum := 0.0
				for _, o := range outs[p*seeds : (p+1)*seeds] {
					sum += o.Value
				}
				collectedMeans[p] = sum / seeds
			}
		}
	})
	streamed := retained(func() func() {
		agg := NewMeanAgg(points)
		if err := Reduce(context.Background(), grid, cell, agg); err != nil {
			t.Fatal(err)
		}
		return func() {
			for p := 0; p < points; p++ {
				streamMeans[p], _, _, _ = agg.Point(p)
			}
		}
	})
	if collectedMeans != streamMeans {
		t.Fatal("streaming means drifted from collected means")
	}
	t.Logf("retained heap: collected %.3f MiB, streaming %.3f MiB",
		float64(collected)/mib, float64(streamed)/mib)
	if streamed >= mib {
		t.Errorf("streaming run retained %d bytes, want < 1 MiB", streamed)
	}
	if collected <= 4*mib {
		t.Errorf("collected run retained %d bytes, want > 4 MiB", collected)
	}
}

// TestQuantilesAccuracy checks the P-squared estimates against exact
// sample quantiles on a deterministic pseudo-random stream: the
// estimator is approximate, so the gate is a loose relative tolerance.
func TestQuantilesAccuracy(t *testing.T) {
	q, err := NewQuantiles(0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.NormFloat64()*3 + 10
		q.Observe(vals[i])
	}
	if q.Count() != n {
		t.Fatalf("count %d, want %d", q.Count(), n)
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.5, 0.95} {
		got, ok := q.Quantile(p)
		if !ok {
			t.Fatalf("p=%v: no estimate", p)
		}
		want := vals[int(p*float64(n))]
		if math.Abs(got-want) > 0.1*math.Abs(want)+0.1 {
			t.Fatalf("p=%v: estimate %v, exact %v", p, got, want)
		}
	}
	if _, ok := q.Quantile(0.25); ok {
		t.Fatal("unrequested probability returned an estimate")
	}
}

// TestQuantilesDeterministicAcrossWorkers folds the same grid through
// Quantiles at several worker counts: grid-order delivery must make the
// estimator state — and therefore the estimates — bit-identical.
func TestQuantilesDeterministicAcrossWorkers(t *testing.T) {
	const points, seeds = 40, 25
	run := func(workers int) (float64, float64) {
		q, err := NewQuantiles(0.5, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		err = Reduce(context.Background(), Grid{Points: points, Seeds: seeds, Workers: workers},
			func(point, seed int) (float64, error) {
				if (point+seed)%11 == 0 {
					return 0, errors.New("skipped")
				}
				return math.Sin(cellValue(point, seed)), nil
			}, Reducer[float64](q))
		if err != nil {
			t.Fatal(err)
		}
		m, _ := q.Quantile(0.5)
		h, _ := q.Quantile(0.9)
		return m, h
	}
	m1, h1 := run(1)
	for _, workers := range []int{2, 8} {
		m, h := run(workers)
		if m != m1 || h != h1 {
			t.Fatalf("workers=%d: quantiles (%v, %v) differ from serial (%v, %v)", workers, m, h, m1, h1)
		}
	}
}

// TestQuantilesSmallSample proves the exact-sample fallback below five
// observations.
func TestQuantilesSmallSample(t *testing.T) {
	q, err := NewQuantiles(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Quantile(0.5); ok {
		t.Fatal("empty estimator returned an estimate")
	}
	for _, v := range []float64{9, 1, 5} {
		q.Observe(v)
	}
	if got, _ := q.Quantile(0.5); got != 5 {
		t.Fatalf("median of {1,5,9} = %v, want 5", got)
	}
	if _, err := NewQuantiles(); err == nil {
		t.Fatal("NewQuantiles() accepted zero probabilities")
	}
	if _, err := NewQuantiles(1.5); err == nil {
		t.Fatal("NewQuantiles(1.5) accepted an out-of-range probability")
	}
}
