package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fixedClock is a frozen test clock: constant instants make the timed
// durations zero, so delivery streams compare exactly across workers.
type fixedClock struct{}

func (fixedClock) Now() time.Time { return time.Unix(0, 0) }

// observerFunc adapts a function to CellObserver.
type observerFunc func(point, seed int, d time.Duration, err error)

func (f observerFunc) ObserveCell(point, seed int, d time.Duration, err error) {
	f(point, seed, d, err)
}

// The TestEach* tests drive Stream over an n x 1 grid, one cell per
// index (Seeds: 1), the shape every one-seed experiment grid has.

// Stream must evaluate and deliver every index exactly once for any
// worker count, including more workers than indices and the inline
// serial path.
func TestEachDispatchesEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 37
		counts := make([]int32, n)
		delivered := make([]int, n)
		err := Stream(context.Background(), Grid{Points: n, Seeds: 1, Workers: workers}, func(i, _ int) (int, error) {
			atomic.AddInt32(&counts[i], 1)
			return i, nil
		}, func(i, _ int, out Outcome[int]) { delivered[i]++ })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if counts[i] != 1 || delivered[i] != 1 {
				t.Errorf("workers=%d: index %d evaluated %d times, delivered %d times", workers, i, counts[i], delivered[i])
			}
		}
	}
	// n <= 0 must be a no-op.
	err := Stream(context.Background(), Grid{Points: 0, Seeds: 1, Workers: 4}, func(i, _ int) (int, error) {
		t.Errorf("dispatched index %d of empty range", i)
		return 0, nil
	}, func(i, _ int, out Outcome[int]) { t.Errorf("delivered index %d of empty range", i) })
	if err != nil {
		t.Fatal(err)
	}
}

// eachOutcomes runs fn over an n x 1 grid and collects Stream's
// deliveries into an index-ordered slice.
func eachOutcomes[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]Outcome[T], error) {
	outs := make([]Outcome[T], n)
	err := Stream(ctx, Grid{Points: n, Seeds: 1, Workers: workers},
		func(i, _ int) (T, error) { return fn(i) },
		func(i, _ int, out Outcome[T]) { outs[i] = out })
	return outs, err
}

// Stream must deliver outcomes in index order, identical for every worker
// count, with errors kept per cell.
func TestEachDeterministicAcrossWorkers(t *testing.T) {
	fn := func(i int) (float64, error) {
		if i%5 == 3 {
			return 0, fmt.Errorf("cell %d failed", i)
		}
		return float64(i * i), nil
	}
	ref, err := eachOutcomes(context.Background(), 1, 23, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 32} {
		got, err := eachOutcomes(context.Background(), workers, 23, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: outcomes differ from serial", workers)
		}
	}
}

// A panicking cell becomes an error outcome; the other cells survive.
func TestEachGuardsPanics(t *testing.T) {
	outs, err := eachOutcomes(context.Background(), 4, 6, func(i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if i == 2 {
			if out.Err == nil || !strings.Contains(out.Err.Error(), "panicked: boom") {
				t.Fatalf("panicking cell reported %v", out.Err)
			}
			continue
		}
		if out.Err != nil || out.Value != i {
			t.Errorf("cell %d: outcome %v, %v", i, out.Value, out.Err)
		}
	}
}

// An already-dead context dispatches no cell, yet every index still gets
// a PhaseCanceled outcome that keeps the ctx cause, serial and pooled.
func TestEachCanceledBeforeStart(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		outs, err := eachOutcomes(ctx, workers, 10, func(i int) (int, error) {
			t.Errorf("workers=%d: cell %d dispatched after cancel", workers, i)
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: returned %v", workers, err)
		}
		if len(outs) != 10 {
			t.Fatalf("workers=%d: %d outcomes, want 10", workers, len(outs))
		}
		for i, out := range outs {
			if Phase(out.Err) != PhaseCanceled {
				t.Errorf("workers=%d: cell %d error %v, want canceled tag", workers, i, out.Err)
			}
			if !errors.Is(out.Err, context.Canceled) {
				t.Errorf("workers=%d: cell %d lost the ctx cause: %v", workers, i, out.Err)
			}
		}
	}
}

// A run delivers cells with point varying slowest, and observes each
// cell just before delivering it, in grid order regardless of worker
// count.
func TestRunGridOrderAndHooks(t *testing.T) {
	g := Grid{Points: 3, Seeds: 2, Workers: 8}
	var events []string
	g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) {
		events = append(events, fmt.Sprintf("obs %d/%d:%v", point, seed, err != nil))
	})
	err := Stream(context.Background(), g, func(point, seed int) (int, error) {
		if point == 1 && seed == 1 {
			return 0, errors.New("dead cell")
		}
		return 10*point + seed, nil
	}, func(point, seed int, out Outcome[int]) {
		events = append(events, fmt.Sprintf("cell %d/%d", point, seed))
		if point == 1 && seed == 1 {
			if out.Err == nil {
				t.Error("dead cell has no error")
			}
			return
		}
		if out.Value != 10*point+seed {
			t.Errorf("cell %d/%d value %d", point, seed, out.Value)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"obs 0/0:false", "cell 0/0", "obs 0/1:false", "cell 0/1",
		"obs 1/0:false", "cell 1/0", "obs 1/1:true", "cell 1/1",
		"obs 2/0:false", "cell 2/0", "obs 2/1:false", "cell 2/1",
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("event order %v, want %v", events, want)
	}
}

// A run must deliver Obs observations and outcomes with identical
// content and order for every worker count — including panicking and
// phase-tagged failing cells — because metrics registries and span
// recorders consume the observation stream.
func TestRunObserverParityAcrossWorkers(t *testing.T) {
	const points, seeds = 4, 3
	run := func(workers int) []string {
		var events []string
		g := Grid{Points: points, Seeds: seeds, Workers: workers, Clock: fixedClock{}}
		g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) {
			events = append(events, fmt.Sprintf("obs %d/%d phase=%q d=%d", point, seed, Phase(err), d))
		})
		err := Stream(context.Background(), g, func(point, seed int) (int, error) {
			switch {
			case point == 1 && seed == 0:
				panic("boom")
			case point == 0 && seed == 1:
				return 0, ConstructErr(errors.New("no instance"))
			case point == 2 && seed == 2:
				return 0, EvaluateErr(errors.New("bad eval"))
			}
			return point*10 + seed, nil
		}, func(point, seed int, out Outcome[int]) {
			events = append(events, fmt.Sprintf("cell %d/%d failed=%v", point, seed, out.Err != nil))
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return events
	}

	ref := run(1)
	if len(ref) != 2*points*seeds {
		t.Fatalf("serial run delivered %d events, want %d", len(ref), 2*points*seeds)
	}
	for i := 0; i < points*seeds; i++ {
		p, s := i/seeds, i%seeds
		if want := fmt.Sprintf("obs %d/%d ", p, s); !strings.HasPrefix(ref[2*i], want) {
			t.Errorf("event %d = %q, want prefix %q", 2*i, ref[2*i], want)
		}
		if want := fmt.Sprintf("cell %d/%d ", p, s); !strings.HasPrefix(ref[2*i+1], want) {
			t.Errorf("event %d = %q, want prefix %q", 2*i+1, ref[2*i+1], want)
		}
	}
	if want := `obs 0/1 phase="construct instance" d=0`; ref[2*1] != want {
		t.Errorf("construct-failed observation %q, want %q", ref[2*1], want)
	}
	if want := `obs 1/0 phase="" d=0`; ref[2*3] != want {
		t.Errorf("panicked-cell observation %q, want %q", ref[2*3], want)
	}
	if want := "cell 1/0 failed=true"; ref[2*3+1] != want {
		t.Errorf("panicked-cell delivery %q, want %q", ref[2*3+1], want)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: delivery stream differs from serial:\n%v\nvs\n%v", workers, got, ref)
		}
	}
}

// Without a Clock the engine still observes cells, reporting zero
// durations rather than consulting any ambient clock.
func TestRunObserverWithoutClock(t *testing.T) {
	var n int
	g := Grid{Points: 2, Seeds: 2, Workers: 4}
	g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) {
		n++
		if d != 0 {
			t.Errorf("cell %d/%d reported duration %v without a clock", point, seed, d)
		}
	})
	if err := Stream(context.Background(), g, func(point, seed int) (int, error) { return 0, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("observed %d cells, want 4", n)
	}
}

// Phase classifies tagged failures and leaves everything else blank.
func TestPhaseClassifier(t *testing.T) {
	if got := Phase(nil); got != "" {
		t.Errorf("Phase(nil) = %q", got)
	}
	if got := Phase(ConstructErr(errors.New("x"))); got != PhaseConstruct {
		t.Errorf("construct tag classified as %q", got)
	}
	if got := Phase(EvaluateErr(errors.New("x"))); got != PhaseEvaluate {
		t.Errorf("evaluate tag classified as %q", got)
	}
	if got := Phase(CanceledErr(context.Canceled)); got != PhaseCanceled {
		t.Errorf("canceled tag classified as %q", got)
	}
	if got := Phase(errors.New("untagged")); got != "" {
		t.Errorf("untagged error classified as %q", got)
	}
}

// An empty grid evaluates, observes and delivers nothing.
func TestRunEmptyGrid(t *testing.T) {
	for _, g := range []Grid{{Points: 0, Seeds: 3, Workers: 4}, {Points: 3, Seeds: 0}} {
		g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) {
			t.Errorf("%+v: cell %d/%d observed on empty grid", g, point, seed)
		})
		err := Stream(context.Background(), g, func(point, seed int) (int, error) {
			t.Errorf("%+v: cell invoked on empty grid", g)
			return 0, nil
		}, func(point, seed int, out Outcome[int]) {
			t.Errorf("%+v: cell %d/%d delivered on empty grid", g, point, seed)
		})
		if err != nil {
			t.Errorf("%+v: %v", g, err)
		}
	}
}

// MeanAgg tolerates failed seeds, reports survivor coverage, and
// surfaces the first failure by seed order.
func TestMean(t *testing.T) {
	agg := NewMeanAgg(2)
	for s, out := range []Outcome[float64]{
		{Value: 2},
		{Err: errors.New("seed 1 broke")},
		{Value: 4},
	} {
		agg.Cell(0, s, out)
	}
	mean, ok, firstErr, firstSeed := agg.Point(0)
	if mean != 3 || ok != 2 || agg.Covered(0) != 3 {
		t.Errorf("mean=%v ok=%d covered=%d", mean, ok, agg.Covered(0))
	}
	if firstErr == nil || firstSeed != 1 {
		t.Errorf("first failure %v at seed %d", firstErr, firstSeed)
	}

	agg.Cell(1, 0, Outcome[float64]{Err: errors.New("a")})
	agg.Cell(1, 1, Outcome[float64]{Err: errors.New("b")})
	mean, ok, firstErr, firstSeed = agg.Point(1)
	if mean != 0 || ok != 0 || firstErr == nil || firstErr.Error() != "a" || firstSeed != 0 {
		t.Errorf("dead point: mean=%v ok=%d err=%v seed=%d", mean, ok, firstErr, firstSeed)
	}
}

// Phase tags must survive wrapping so degraded sweeps stay diagnosable,
// and the tag helpers must preserve the wrapped error for errors.Is.
func TestPhaseTags(t *testing.T) {
	base := errors.New("root cause")
	c := ConstructErr(base)
	e := EvaluateErr(base)
	if !errors.Is(c, base) || !errors.Is(e, base) {
		t.Error("phase wrap lost the cause")
	}
	if got := c.Error(); got != PhaseConstruct+": root cause" {
		t.Errorf("construct tag: %q", got)
	}
	if got := e.Error(); got != PhaseEvaluate+": root cause" {
		t.Errorf("evaluate tag: %q", got)
	}
}

// Canceling mid-run stops scheduling promptly: the cells in flight at
// cancellation finish and keep their index-order outcomes, every
// undispatched cell carries a PhaseCanceled tag, and no cell starts
// after the cancel. The gate makes the cut deterministic: exactly
// `workers` cells are in flight when the context ends.
func TestEachCancellationStopsScheduling(t *testing.T) {
	const workers, n = 3, 40
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, n)
	release := make(chan struct{})
	var startedTotal atomic.Int32
	type result struct {
		outs []Outcome[int]
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		outs, err := eachOutcomes(ctx, workers, n, func(i int) (int, error) {
			startedTotal.Add(1)
			started <- struct{}{}
			<-release
			return i * i, nil
		})
		resCh <- result{outs, err}
	}()
	for i := 0; i < workers; i++ {
		<-started
	}
	cancel()
	close(release)
	res := <-resCh
	if !errors.Is(res.err, context.Canceled) {
		t.Errorf("Stream returned %v, want context.Canceled", res.err)
	}

	var done, canceled int
	for i, out := range res.outs {
		switch Phase(out.Err) {
		case "":
			done++
			if out.Value != i*i {
				t.Errorf("completed cell %d value %d, want %d", i, out.Value, i*i)
			}
		case PhaseCanceled:
			canceled++
			if !errors.Is(out.Err, context.Canceled) {
				t.Errorf("canceled cell %d lost the ctx cause: %v", i, out.Err)
			}
		default:
			t.Errorf("cell %d unexpected error %v", i, out.Err)
		}
	}
	if done != workers {
		t.Errorf("%d cells completed, want exactly the %d in flight at cancel", done, workers)
	}
	if canceled != n-workers {
		t.Errorf("%d cells canceled, want %d", canceled, n-workers)
	}
	if got := startedTotal.Load(); got != workers {
		t.Errorf("%d cells started, want %d: a cell was dispatched after cancel", got, workers)
	}
}

// A canceled run keeps grid-order delivery: completed cells arrive at
// their own (point, seed) coordinates with correct values, canceled
// cells are tagged, and every cell is still observed and delivered.
func TestRunCanceledKeepsGridOrder(t *testing.T) {
	const points, seeds = 5, 4
	ctx, cancel := context.WithCancel(context.Background())
	var observed int
	g := Grid{Points: points, Seeds: seeds, Workers: 2}
	g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) { observed++ })
	var next, done, canceled int
	err := Stream(ctx, g, func(point, seed int) (int, error) {
		if point == 0 && seed == 1 {
			cancel()
		}
		return 100*point + seed, nil
	}, func(p, s int, out Outcome[int]) {
		if idx := p*seeds + s; idx != next {
			t.Errorf("delivery %d carried cell %d", next, idx)
		}
		next++
		if out.Err == nil {
			done++
			if out.Value != 100*p+s {
				t.Errorf("cell %d/%d value %d, want %d", p, s, out.Value, 100*p+s)
			}
			return
		}
		if Phase(out.Err) != PhaseCanceled {
			t.Errorf("cell %d/%d unexpected error %v", p, s, out.Err)
		}
		canceled++
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Stream returned %v, want context.Canceled", err)
	}
	if done == 0 || canceled == 0 {
		t.Errorf("done=%d canceled=%d: cancel mid-run should split the grid", done, canceled)
	}
	if next != points*seeds || observed != points*seeds {
		t.Errorf("%d cells delivered, %d observed, want %d: canceled cells must still arrive", next, observed, points*seeds)
	}
}

// A run must drain its pool before returning even when canceled:
// repeated canceled runs leave no goroutines behind.
func TestStreamCanceledNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 25; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := Stream(ctx, Grid{Points: 64, Seeds: 1, Workers: 8}, func(point, _ int) (int, error) {
			if point == 0 {
				cancel()
			}
			return point, nil
		}, nil)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: unexpected error %v", round, err)
		}
	}
	// The pool joins before Stream returns, so any surplus goroutines
	// here are leaks, not stragglers; allow a little slack for the
	// runtime's own background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after canceled runs", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The serial path honors cancellation between cells: the cell that
// canceled completes, and every later cell is delivered canceled
// without running.
func TestStreamSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran, canceled int
	err := Stream(ctx, Grid{Points: 10, Seeds: 1, Workers: 1}, func(point, _ int) (int, error) {
		ran++
		if point == 2 {
			cancel()
		}
		return point, nil
	}, func(point, _ int, out Outcome[int]) {
		if Phase(out.Err) == PhaseCanceled {
			canceled++
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 || canceled != 7 {
		t.Errorf("ran %d cells and canceled %d, want 3 and 7: serial path must stop at the next cell", ran, canceled)
	}
}
