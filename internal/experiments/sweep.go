package experiments

import (
	"fmt"

	"hybridcap/internal/cellcache"
	"hybridcap/internal/engine"
	"hybridcap/internal/faults"
	"hybridcap/internal/measure"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scenario"
	"hybridcap/internal/traffic"
)

// evalFn measures one instance: a per-node rate, flat per-scheme delay
// statistics, or a scenario cell's both (cellValue).
type evalFn[T any] func(nw *network.Network, tr *traffic.Pattern) (T, error)

// schemeEval adapts a routing.Scheme.
func schemeEval(s routing.Scheme) evalFn[float64] {
	return func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		ev, err := s.Evaluate(nw, tr)
		if err != nil {
			return 0, err
		}
		if ev.Failures > 0 {
			return 0, fmt.Errorf("%s: %d unroutable pairs", s.Name(), ev.Failures)
		}
		return ev.Lambda, nil
	}
}

// lambdaOf scores an instance by s's rate, unroutable pairs and all
// (schemeEval is the strict form that fails on them).
func lambdaOf(s routing.Scheme) evalFn[float64] {
	return func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		ev, err := s.Evaluate(nw, tr)
		if err != nil {
			return 0, err
		}
		return ev.Lambda, nil
	}
}

// bestOf takes the max of several evaluators (capacity is achieved by
// the best scheme, e.g. Theta(1/f) + Theta(min(...)) in the strong
// regime). It fails only if every evaluator fails.
func bestOf(evals ...evalFn[float64]) evalFn[float64] {
	return func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		best := 0.0
		var lastErr error
		ok := false
		for _, e := range evals {
			v, err := e(nw, tr)
			if err != nil {
				lastErr = err
				continue
			}
			ok = true
			if v > best {
				best = v
			}
		}
		if !ok {
			return 0, lastErr
		}
		return best, nil
	}
}

// scenarioEval evaluates a declarative scheme set: each name is
// resolved against the instance's own parameter point (gridMultihop
// picks its cell side from gamma(n) there) and the point scores the
// best of them.
func scenarioEval(names []string) evalFn[float64] {
	return func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		evals := make([]evalFn[float64], 0, len(names))
		for _, name := range names {
			s, err := routing.ByName(name, nw.Cfg.Params)
			if err != nil {
				return 0, err
			}
			evals = append(evals, schemeEval(s))
		}
		return bestOf(evals...)(nw, tr)
	}
}

// cellValue is one scenario cell's result, both halves measured on the
// one instance the cell builds: the best scheme's lambda and, in a
// delay scenario, the delay half — every delay scheme's statistics as
// consecutive delay.Stats flat forms, in the scenario's delay-scheme
// order.
type cellValue struct {
	lambda float64
	delay  []float64
}

// scenarioCell scores an instance by lambda and, when delayOf is set,
// by delayOf as well. The cell has one outcome: it fails if either
// half fails.
func scenarioCell(lambda evalFn[float64], delayOf evalFn[[]float64]) evalFn[cellValue] {
	return func(nw *network.Network, tr *traffic.Pattern) (cellValue, error) {
		l, err := lambda(nw, tr)
		if err != nil || delayOf == nil {
			return cellValue{lambda: l}, err
		}
		d, err := delayOf(nw, tr)
		return cellValue{lambda: l, delay: d}, err
	}
}

// sizeGrid is a resolved sizes x seeds grid: one validated parameter
// point per size, the BS placement and optional fault plan every
// instance gets, and the only derivation of cell seeds. Each cell
// builds its instance once and scores both of a scenario's halves on
// it.
type sizeGrid struct {
	name      string
	sizes     []int
	params    []scaling.Params
	srcs      []rng.Source
	placement network.BSPlacement
	faults    *faults.Config
}

// newSizeGrid resolves the grid, validating every point before any cell
// runs. The grid's name salts the seed derivation.
func newSizeGrid(name string, sizes []int, base scaling.Params, placement network.BSPlacement, fc *faults.Config) (*sizeGrid, error) {
	src := rng.New(0xE).Derive("sweep").Derive(name)
	g := &sizeGrid{
		name:      name,
		sizes:     sizes,
		params:    make([]scaling.Params, len(sizes)),
		srcs:      make([]rng.Source, len(sizes)),
		placement: placement,
		faults:    fc,
	}
	for i, n := range sizes {
		p := base.WithN(n)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %s at n=%d: %w", name, n, err)
		}
		g.params[i] = p
		g.srcs[i] = src.DeriveN("n", n)
	}
	return g, nil
}

// cellSeed derives a cell's seed lazily from its point's source: rng
// derivation is a pure function of the source value, so worker
// goroutines may derive concurrently and the grid keeps O(points) seed
// state instead of a materialized cell list. A cell's seed does not
// depend on which worker runs it or when.
func (g *sizeGrid) cellSeed(point, seed int) uint64 {
	return g.srcs[point].DeriveN("seed", seed).Uint64()
}

// config is the network configuration of one cell: the point's
// parameters, the cell's derived seed and the grid's BS placement.
func (g *sizeGrid) config(point, seed int) network.Config {
	return network.Config{Params: g.params[point], Seed: g.cellSeed(point, seed), BSPlacement: g.placement}
}

// cellStep is the one cell step of every experiment: it builds cfg's
// instance, installing a fresh plan of fc when fc is active (nil or
// inactive installs none), and runs eval on it, tagging failures with
// their phase. The deferred recover keeps a panicking evaluator an
// evaluate failure; engine.Stream's own guard would catch the panic,
// but untagged.
func cellStep[T any](cfg network.Config, fc *faults.Config, eval evalFn[T]) (v T, err error) {
	var zero T
	if fc != nil && fc.Active() {
		if cfg.Faults, err = faults.New(*fc); err != nil {
			return zero, engine.ConstructErr(fmt.Errorf("experiments: %w", err))
		}
	}
	nw, tr, err := build(cfg)
	if err != nil {
		return zero, engine.ConstructErr(err)
	}
	defer func() {
		if r := recover(); r != nil {
			v, err = zero, engine.EvaluateErr(fmt.Errorf("evaluation panicked: %v", r))
		}
	}()
	if v, err = eval(nw, tr); err != nil {
		return zero, engine.EvaluateErr(err)
	}
	return v, nil
}

// shardedGrid is the engine grid shape of a points x seeds sweep with
// shard spec s installed (the whole grid when s is nil).
func shardedGrid(points, seeds int, s *scenario.ShardSpec) engine.Grid {
	g := engine.Grid{Points: points, Seeds: seeds}
	if s != nil {
		g.ShardIndex, g.ShardCount = s.Index, s.Count
	}
	return g
}

// gridAgg folds a scenario's cell outcomes per point in grid order:
// lambda through engine.MeanAgg's sum-then-divide, the delay half into
// per-point field sums over the same surviving seeds, so a point's
// lambda and delay describe one set of instances.
type gridAgg struct {
	*engine.MeanAgg
	delay [][]float64 // per point, one delay half wide; nil without delay
}

// newGridAgg sizes the aggregator for points whose cells carry a delay
// half of width values (0: lambda only).
func newGridAgg(points, width int) *gridAgg {
	a := &gridAgg{MeanAgg: engine.NewMeanAgg(points)}
	if width > 0 {
		a.delay = make([][]float64, points)
		for i := range a.delay {
			a.delay[i] = make([]float64, width)
		}
	}
	return a
}

// Cell implements the engine reduce callback. The engine delivers cells
// in grid order, so per-point seed folds are deterministic.
func (a *gridAgg) Cell(point, seed int, out engine.Outcome[cellValue]) {
	a.MeanAgg.Cell(point, seed, engine.Outcome[float64]{Value: out.Value.lambda, Err: out.Err})
	if out.Err != nil || a.delay == nil {
		return
	}
	sum := a.delay[point]
	for k := range sum {
		sum[k] += out.Value.delay[k]
	}
}

// gridRun is what a scenario brings to the grid runner besides the
// grid: the cell evaluator, the width of its cells' delay half (0 for
// a lambda-only scenario), the optional shard spec, and the optional
// renderer of a point's canonical cell-cache scope by network size
// (nil stays uncached).
type gridRun struct {
	eval  evalFn[cellValue]
	width int
	shard *scenario.ShardSpec
	scope func(n int) ([]byte, error)
}

// gridPoint is one point's aggregate: its size, the mean lambda and the
// mean delay half (nil in a lambda-only run) over its surviving seeds,
// and how many seeds survived out of those covered.
type gridPoint struct {
	N       int
	Lambda  float64
	Delay   []float64
	OK      int
	Covered int
}

// runGrid is the streaming grid runner behind every scenario: cells fan
// out through the engine's bounded pool and fold into one aggregator in
// grid order, so the points are byte-identical to a serial run for
// every worker count while the run holds O(points + workers) state. The
// run is bracketed in a "sweep <name>" span and every cell outcome goes
// through the observability sink. An optional shard spec restricts the
// run to one contiguous block of the global grid (cells keep their
// global coordinates and seeds, so a shard's cells are exactly the
// unsharded run's).
//
// Failing seeds (errors or panics) are tolerated: a point aggregates
// its surviving seeds and reports its coverage. Unsharded, a point
// losing every seed aborts the run, reporting the point's first failure
// by seed order; under a shard every covered point is returned (whether
// the full point is dead is the unsharded run's call, not one shard's).
func runGrid(o Options, g *sizeGrid, r gridRun) ([]gridPoint, error) {
	prefix := "experiments: " + g.name
	eg := shardedGrid(len(g.sizes), o.seeds(), r.shard)
	eg.Workers = o.workers()
	if o.CellCache != nil && r.scope != nil {
		cache, err := newSweepCellCache(o.CellCache, r.scope, g, r.width)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prefix, err)
		}
		eg.Cache = cache
	}
	agg := newGridAgg(len(g.sizes), r.width)
	finish := observeGrid(o, "sweep "+g.name, &eg, g.sizes)
	serr := engine.Stream(o.ctx(), eg,
		func(point, seed int) (cellValue, error) { return cellStep(g.config(point, seed), g.faults, r.eval) },
		agg.Cell)
	finish()

	// A canceled run must fail as a whole: partial grids would look
	// like degraded-but-valid data, and a daemon must never cache them.
	// An invalid shard spec surfaces here too, before any cell ran.
	if serr != nil {
		return nil, fmt.Errorf("%s: %w", prefix, serr)
	}
	pts := make([]gridPoint, 0, len(g.sizes))
	for i, n := range g.sizes {
		lambda, ok, firstErr, firstSeed := agg.Point(i)
		covered := agg.Covered(i)
		if r.shard == nil && ok == 0 {
			wrapped := fmt.Errorf("%s at n=%d seed %d: %w", prefix, n, firstSeed, firstErr)
			return nil, fmt.Errorf("%s at n=%d: all %d seeds failed: %w", prefix, n, eg.Seeds, wrapped)
		}
		if covered == 0 {
			continue
		}
		pt := gridPoint{N: n, Lambda: lambda, OK: ok, Covered: covered}
		if agg.delay != nil {
			pt.Delay = agg.delay[i]
			if ok > 0 {
				f := 1 / float64(ok)
				for k := range pt.Delay {
					pt.Delay[k] *= f
				}
			}
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// lambdaSeries renders a run's points as the measured lambda series
// with per-point coverage. A sharded point without a surviving seed has
// no mean and is left out.
func lambdaSeries(name string, pts []gridPoint) *measure.Series {
	series := &measure.Series{Name: name}
	for _, pt := range pts {
		if pt.OK > 0 {
			series.AddCounted(float64(pt.N), pt.Lambda, pt.OK, pt.Covered)
		}
	}
	return series
}

// sweepScenario resolves a declarative scenario's size grid and runs it
// once: the scenario's name salts the seed derivation, its scheme set
// scores each instance's lambda, its optional delay spec scores the
// same instance's delay, its optional fault plan is installed into
// every cell, its optional shard spec selects the block of the global
// grid this process evaluates and its cell scope keys the optional cell
// cache, which stores both halves of every cell.
func sweepScenario(o Options, sc *scenario.Scenario, sizes []int) (*measure.Series, []gridPoint, error) {
	placement, err := sc.PlacementScheme()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: scenario %s: %w", sc.Name, err)
	}
	g, err := newSizeGrid(sc.Name, sizes, sc.Base.Params(0), placement, sc.FaultConfig())
	if err != nil {
		return nil, nil, err
	}
	r := gridRun{shard: sc.Shard, scope: sc.CellScope}
	var delayOf evalFn[[]float64]
	if sc.Delay != nil {
		schemes, probs := sc.DelaySchemes(), sc.DelayQuantiles()
		delayOf = delayEval(schemes, probs, sc.AssocConfig())
		r.width = delayWidth(schemes, probs)
	}
	r.eval = scenarioCell(scenarioEval(sc.Schemes), delayOf)
	pts, err := runGrid(o, g, r)
	if err != nil {
		return nil, nil, err
	}
	return lambdaSeries(g.name, pts), pts, nil
}

// sweepCellCache adapts the persistent cell store to the engine's
// CellCache: grid coordinates map to (scope, n, derived seed) keys, so
// a cell hits if and only if the exact same instance would be rebuilt.
// An entry stores both halves of its cell; under a delay scope a stored
// lambda without its delay half misses, and the recomputed cell
// overwrites it. Keys are shard-blind (global coordinates, derived
// seeds), so an unsharded run replays the cells its shards stored, and
// a resumed or re-partitioned sweep replays another run's cells. Gets
// and Puts run on worker goroutines; the adapter's state is read-only
// after construction, the seed derivation is pure, and the store is
// concurrency-safe.
type sweepCellCache struct {
	store  *cellcache.Store
	scopes [][]byte // per point
	grid   *sizeGrid
	width  int // delay-half length of every cell
}

// newSweepCellCache precomputes the per-point scopes for a grid.
func newSweepCellCache(store *cellcache.Store, scope func(n int) ([]byte, error), g *sizeGrid, width int) (*sweepCellCache, error) {
	scopes := make([][]byte, len(g.sizes))
	for i, n := range g.sizes {
		b, err := scope(n)
		if err != nil {
			return nil, err
		}
		scopes[i] = b
	}
	return &sweepCellCache{store: store, scopes: scopes, grid: g, width: width}, nil
}

// Get implements engine.CellCache. Every store failure — miss, I/O
// error, corruption (evicted on the spot), an entry of another shape —
// degrades to a recompute.
func (c *sweepCellCache) Get(point, seed int) (any, bool) {
	key := cellcache.Key(c.scopes[point], c.grid.sizes[point], c.grid.cellSeed(point, seed))
	e, _, err := c.store.Get(key, c.width)
	if err != nil {
		return nil, false
	}
	return cellValue{lambda: e.Value, delay: e.Delay}, true
}

// Put implements engine.CellCache. Persistence is best-effort: a full
// disk or non-finite value loses the entry, never the run.
func (c *sweepCellCache) Put(point, seed int, v any) {
	val, ok := v.(cellValue)
	if !ok {
		return
	}
	_ = c.store.Put(c.scopes[point], c.grid.sizes[point], c.grid.cellSeed(point, seed), val.lambda, val.delay...)
}
