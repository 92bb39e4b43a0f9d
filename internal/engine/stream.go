package engine

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// cellOut carries one evaluated cell through the reorder buffer: the
// outcome plus what its observation needs (duration, cache replay).
type cellOut[T any] struct {
	out    Outcome[T]
	d      time.Duration
	cached bool
}

// shardRange resolves the grid's shard spec against n total cells to
// the half-open global index range [lo, hi) this run owns. Shards are
// contiguous blocks: shard j of k owns [j*n/k, (j+1)*n/k), so every
// shard's coverage is one span, the union is an exact disjoint cover,
// and cells keep their global coordinates (and therefore their
// pre-derived seeds). ShardCount <= 0 means the whole grid.
func (g Grid) shardRange(n int) (lo, hi int, err error) {
	if g.ShardCount <= 0 {
		return 0, n, nil
	}
	if g.ShardIndex < 0 || g.ShardIndex >= g.ShardCount {
		return 0, 0, fmt.Errorf("engine: shard index %d out of range [0,%d)", g.ShardIndex, g.ShardCount)
	}
	if g.ShardCount > n {
		return 0, 0, fmt.Errorf("engine: shard count %d exceeds %d grid cells", g.ShardCount, n)
	}
	return g.ShardIndex * n / g.ShardCount, (g.ShardIndex + 1) * n / g.ShardCount, nil
}

// Coverage resolves the global cell range [lo, hi) the grid will
// evaluate under its shard spec (the whole grid when unsharded), so
// callers can record grid coverage without re-deriving the block math.
func (g Grid) Coverage() (lo, hi int, err error) {
	if g.Points <= 0 || g.Seeds <= 0 {
		return 0, 0, nil
	}
	return g.shardRange(g.Points * g.Seeds)
}

// Stream evaluates the grid's covered cells on a bounded pool and
// delivers every outcome to deliver exactly once per covered cell, in
// grid order, on the caller's goroutine; deliver may be nil. Each cell
// is observed by the grid's Obs (with its duration, and its cache
// replay when Obs is a CachedCellObserver) just before it is delivered,
// so the observed stream is byte-identical for every worker count.
// Workers run at most 2×Workers cells ahead of delivery, so at most
// that many completed cells are buffered, whatever the grid's size.
//
// Once ctx is done no new cell is dispatched, in-flight cells finish and
// are delivered with their real outcomes, and every covered cell that
// was never dispatched is delivered with a shared PhaseCanceled-tagged
// ctx error; the ctx error is returned. An invalid shard spec is
// returned as an error before any cell runs. A nil ctx never cancels.
func Stream[T any](ctx context.Context, g Grid, cell func(point, seed int) (T, error), deliver func(point, seed int, out Outcome[T])) error {
	if g.Points <= 0 || g.Seeds <= 0 {
		return nil
	}
	if ctx == nil {
		//lint:ignore ctxflow documented nil-ctx fallback: a nil ctx means "never cancel", and Background is exactly that
		ctx = context.Background()
	}
	lo, hi, err := g.shardRange(g.Points * g.Seeds)
	if err != nil {
		return err
	}
	timed := g.Obs != nil && g.Clock != nil
	eval := func(point, seed int) cellOut[T] {
		var r cellOut[T]
		if g.Cache != nil {
			if raw, ok := g.Cache.Get(point, seed); ok {
				if v, ok := raw.(T); ok {
					r.out.Value, r.cached = v, true
					return r
				}
			}
		}
		var t0 time.Time
		if timed {
			t0 = g.Clock.Now()
		}
		v, err := guard(func() (T, error) { return cell(point, seed) })
		if timed {
			r.d = g.Clock.Now().Sub(t0)
		}
		r.out = Outcome[T]{Value: v, Err: err}
		if g.Cache != nil && err == nil {
			g.Cache.Put(point, seed, v)
		}
		return r
	}
	cobs, _ := g.Obs.(CachedCellObserver)
	emit := func(i int, r cellOut[T]) {
		p, s := i/g.Seeds, i%g.Seeds
		if g.Obs != nil {
			g.Obs.ObserveCell(p, s, r.d, r.out.Err)
			if cobs != nil && r.cached {
				cobs.ObserveCachedCell(p, s)
			}
		}
		if deliver != nil {
			deliver(p, s, r.out)
		}
	}

	count := hi - lo
	workers := min(g.Workers, count)
	if workers <= 1 {
		var cerr error
		for i := lo; i < hi; i++ {
			if cerr == nil && ctx.Err() != nil {
				cerr = CanceledErr(ctx.Err())
			}
			if cerr != nil {
				emit(i, cellOut[T]{out: Outcome[T]{Err: cerr}})
				continue
			}
			emit(i, eval(i/g.Seeds, i%g.Seeds))
		}
		return ctx.Err()
	}

	window := min(2*workers, count)
	var (
		mu       sync.Mutex
		ready    = sync.NewCond(&mu) // delivery waits for the frontier cell or pool exit
		slots    = sync.NewCond(&mu) // workers wait for reorder-window room
		next     = lo
		frontier = lo
		buf      = make(map[int]cellOut[T], window)
		poolDone bool
	)
	// Workers parked on slots cannot see ctx end on their own; wake them
	// so a canceled run drains instead of deadlocking.
	stopWatch := context.AfterFunc(ctx, func() {
		mu.Lock()
		slots.Broadcast()
		mu.Unlock()
	})
	defer stopWatch()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				for next < hi && next-frontier >= window && ctx.Err() == nil {
					slots.Wait()
				}
				if next >= hi || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				r := eval(i/g.Seeds, i%g.Seeds)
				mu.Lock()
				buf[i] = r
				if i == frontier {
					ready.Signal()
				}
				mu.Unlock()
			}
		}()
	}
	go func() {
		// Every dispatched cell completes before the pool exits, so once
		// poolDone is set a missing frontier cell means "never dispatched".
		wg.Wait()
		mu.Lock()
		poolDone = true
		ready.Signal()
		mu.Unlock()
	}()
	var cerr error
	for i := lo; i < hi; i++ {
		mu.Lock()
		for {
			if r, ok := buf[i]; ok {
				delete(buf, i)
				frontier = i + 1
				slots.Broadcast()
				mu.Unlock()
				emit(i, r)
				break
			}
			if poolDone {
				mu.Unlock()
				if cerr == nil {
					cerr = CanceledErr(ctx.Err())
				}
				emit(i, cellOut[T]{out: Outcome[T]{Err: cerr}})
				break
			}
			ready.Wait()
		}
	}
	return ctx.Err()
}

// meanAcc is one grid point's running tolerant-mean state.
type meanAcc struct {
	sum       float64
	ok        int
	covered   int
	firstErr  error
	firstSeed int
}

// MeanAgg folds per-point tolerant means cell by cell in O(points)
// memory. Because cells arrive in grid order, each point's sum
// accumulates in seed order, so the mean is bit-identical to a plain
// seed-order loop over the point's values, for every worker count.
type MeanAgg struct {
	acc []meanAcc
}

// NewMeanAgg prepares the aggregator for a grid with the given point
// count.
func NewMeanAgg(points int) *MeanAgg {
	acc := make([]meanAcc, points)
	for i := range acc {
		acc[i].firstSeed = -1
	}
	return &MeanAgg{acc: acc}
}

// Cell folds one delivered outcome into its point; feed it from
// Stream's deliver callback.
func (a *MeanAgg) Cell(point, seed int, out Outcome[float64]) {
	p := &a.acc[point]
	p.covered++
	if out.Err != nil {
		if p.firstErr == nil {
			p.firstErr, p.firstSeed = out.Err, seed
		}
		return
	}
	p.sum += out.Value
	p.ok++
}

// Point reports one point's aggregate: the mean over surviving seeds,
// the survivor count, and the first failure by seed order (with its
// seed index, -1 when none failed). ok == 0 means every delivered seed
// failed.
func (a *MeanAgg) Point(point int) (mean float64, ok int, firstErr error, firstSeed int) {
	p := a.acc[point]
	if p.ok == 0 {
		return 0, 0, p.firstErr, p.firstSeed
	}
	return p.sum / float64(p.ok), p.ok, p.firstErr, p.firstSeed
}

// Covered reports how many of the point's cells were delivered: the
// full seed count on a whole-grid run, possibly fewer (or zero) under a
// shard.
func (a *MeanAgg) Covered(point int) int { return a.acc[point].covered }
