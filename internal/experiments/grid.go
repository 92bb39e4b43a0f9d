package experiments

import "hybridcap/internal/engine"

// collect evaluates fn over the indices 0..n-1 on the options' worker
// pool and returns the values in index order. Every cell must succeed:
// otherwise the first failure in index order is returned, a canceled
// cell included.
func collect[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	vals := make([]T, n)
	var first engine.FirstErrAgg[T]
	err := engine.Each(o.ctx(), o.workers(), n, fn, func(i int, out engine.Outcome[T]) {
		first.Cell(i, 0, out)
		vals[i] = out.Value
	})
	if first.Err != nil {
		return nil, first.Err
	}
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// gridMeans evaluates cell over a points x seeds grid on the options'
// worker pool, observed as one phase span (see observeGrid; sizes
// labels the cells), and returns each point's mean over its seeds.
// Every cell must succeed: otherwise the first failure in grid order is
// returned, a canceled cell included.
func gridMeans(o Options, phase string, points int, sizes []int, cell func(point, seed int) (float64, error)) ([]float64, error) {
	g := engine.Grid{Points: points, Seeds: o.seeds(), Workers: o.workers()}
	finish := observeGrid(o, phase, &g, sizes)
	agg := engine.NewMeanAgg(points)
	err := engine.Reduce(o.ctx(), g, cell, agg)
	finish()
	means := make([]float64, points)
	for i := range means {
		mean, _, firstErr, _ := agg.Point(i)
		if firstErr != nil {
			return nil, firstErr
		}
		means[i] = mean
	}
	if err != nil {
		return nil, err
	}
	return means, nil
}
