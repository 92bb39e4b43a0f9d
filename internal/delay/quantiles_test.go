package delay

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hybridcap/internal/engine"
)

// TestQuantilesAccuracy checks the P-squared estimates against exact
// sample quantiles on a deterministic pseudo-random stream: the
// estimator is approximate, so the gate is a loose relative tolerance.
func TestQuantilesAccuracy(t *testing.T) {
	q, err := newQuantiles(0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.NormFloat64()*3 + 10
		q.observe(vals[i])
	}
	if q.count != n {
		t.Fatalf("count %d, want %d", q.count, n)
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.5, 0.95} {
		got, ok := q.quantile(p)
		if !ok {
			t.Fatalf("p=%v: no estimate", p)
		}
		want := vals[int(p*float64(n))]
		if math.Abs(got-want) > 0.1*math.Abs(want)+0.1 {
			t.Fatalf("p=%v: estimate %v, exact %v", p, got, want)
		}
	}
	if _, ok := q.quantile(0.25); ok {
		t.Fatal("unrequested probability returned an estimate")
	}
}

// TestQuantilesDeterministicAcrossWorkers folds the same grid through
// the estimator at several worker counts: grid-order delivery must make
// the estimator state — and therefore the estimates — bit-identical.
func TestQuantilesDeterministicAcrossWorkers(t *testing.T) {
	const points, seeds = 40, 25
	run := func(workers int) (float64, float64) {
		q, err := newQuantiles(0.5, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		err = engine.Stream(context.Background(), engine.Grid{Points: points, Seeds: seeds, Workers: workers},
			func(point, seed int) (float64, error) {
				if (point+seed)%11 == 0 {
					return 0, errors.New("skipped")
				}
				return math.Sin(float64(point*31+seed*7) + float64(point%5)/8), nil
			}, func(_, _ int, out engine.Outcome[float64]) {
				if out.Err == nil {
					q.observe(out.Value)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := q.quantile(0.5)
		h, _ := q.quantile(0.9)
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
	q, err := newQuantiles(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.quantile(0.5); ok {
		t.Fatal("empty estimator returned an estimate")
	}
	for _, v := range []float64{9, 1, 5} {
		q.observe(v)
	}
	if got, _ := q.quantile(0.5); got != 5 {
		t.Fatalf("median of {1,5,9} = %v, want 5", got)
	}
	if _, err := newQuantiles(); err == nil {
		t.Fatal("newQuantiles() accepted zero probabilities")
	}
	if _, err := newQuantiles(1.5); err == nil {
		t.Fatal("newQuantiles(1.5) accepted an out-of-range probability")
	}
}
