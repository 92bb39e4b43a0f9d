package experiments

import "hybridcap/internal/engine"

// strictGrid is the grid runner of every experiment that is not a size
// sweep: it evaluates cell over a points x seeds grid through
// engine.Stream on the options' worker pool, observed as one phase span
// (see observeGrid; sizes labels the cells, nil falls back to point
// indices), and returns the values in grid order, point p's seed s at
// p*seeds+s. Every cell must succeed: otherwise the first failure in
// grid order is returned, a canceled cell included.
func strictGrid[T any](o Options, phase string, points, seeds int, sizes []int, cell func(point, seed int) (T, error)) ([]T, error) {
	g := engine.Grid{Points: points, Seeds: seeds, Workers: o.workers()}
	finish := observeGrid(o, phase, &g, sizes)
	vals := make([]T, points*seeds)
	var first error
	err := engine.Stream(o.ctx(), g, cell, func(point, seed int, out engine.Outcome[T]) {
		if out.Err != nil && first == nil {
			first = out.Err
		}
		vals[point*seeds+seed] = out.Value
	})
	finish()
	if first != nil {
		return nil, first
	}
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// pointMeans folds a strict grid's values into per-point means: each
// point's seed-order sum divided by seeds, bit-identical to
// engine.MeanAgg's mean when every seed succeeded.
func pointMeans(vals []float64, seeds int) []float64 {
	means := make([]float64, len(vals)/seeds)
	for p := range means {
		sum := 0.0
		for _, v := range vals[p*seeds : (p+1)*seeds] {
			sum += v
		}
		means[p] = sum / float64(seeds)
	}
	return means
}
