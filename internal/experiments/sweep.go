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

// evalFn measures one instance: a per-node rate on the lambda pass,
// per-scheme delay statistics on the delay pass.
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

// sizeGrid is a resolved sizes x seeds grid: one validated parameter
// point per size, the BS placement and optional fault plan every
// instance gets, and the only derivation of cell seeds. A scenario's
// lambda and delay passes run on the same grid, so they evaluate the
// same instances.
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

// pointAgg folds one pass's cell outcomes per point, in grid order:
// engine.MeanAgg for the lambda pass, delayAgg for the delay pass.
type pointAgg[T, V any] interface {
	Cell(point, seed int, out engine.Outcome[T])
	Point(point int) (v V, ok int, firstErr error, firstSeed int)
	Covered(point int) int
}

// gridPass is what one pass brings to the grid runner besides the grid:
// the phase name ("sweep" or "delay"), the error prefix, the evaluator,
// the aggregator and the optional shard spec and cell-cache scope (nil
// stays uncached).
type gridPass[T, V any] struct {
	phase  string
	prefix string
	eval   evalFn[T]
	agg    pointAgg[T, V]
	shard  *scenario.ShardSpec
	scope  scopeFn
}

// gridPoint is one point's aggregate after a pass: its size, the
// aggregator's value, and how many seeds survived out of those covered.
type gridPoint[V any] struct {
	N       int
	Value   V
	OK      int
	Covered int
}

// runGrid is the streaming grid runner behind both passes: cells fan
// out through the engine's bounded pool and fold into the pass's
// aggregator in grid order, so the points are byte-identical to a
// serial run for every worker count while the run holds O(points +
// workers) state. The run is bracketed in a "<phase> <name>" span and
// every cell outcome goes through the observability sink. An optional
// shard spec restricts the run to one contiguous block of the global
// grid (cells keep their global coordinates and seeds, so a shard's
// cells are exactly the unsharded run's).
//
// Failing seeds (errors or panics) are tolerated: a point aggregates
// its surviving seeds and reports its coverage. Unsharded, a point
// losing every seed aborts the run, reporting the point's first failure
// by seed order; under a shard every covered point is returned (whether
// the full point is dead is the unsharded run's call, not one shard's).
func runGrid[T, V any](o Options, g *sizeGrid, p gridPass[T, V]) ([]gridPoint[V], error) {
	eg := shardedGrid(len(g.sizes), o.seeds(), p.shard)
	eg.Workers = o.workers()
	if o.CellCache != nil && p.scope != nil {
		cache, err := newSweepCellCache(o.CellCache, p.scope, g)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.prefix, err)
		}
		eg.Cache = cache
	}
	finish := observeGrid(o, p.phase+" "+g.name, &eg, g.sizes)
	serr := engine.Stream(o.ctx(), eg,
		func(point, seed int) (T, error) { return cellStep(g.config(point, seed), g.faults, p.eval) },
		p.agg.Cell)
	finish()

	// A canceled run must fail as a whole: partial grids would look
	// like degraded-but-valid data, and a daemon must never cache them.
	// An invalid shard spec surfaces here too, before any cell ran.
	if serr != nil {
		return nil, fmt.Errorf("%s: %w", p.prefix, serr)
	}
	pts := make([]gridPoint[V], 0, len(g.sizes))
	for i, n := range g.sizes {
		v, ok, firstErr, firstSeed := p.agg.Point(i)
		covered := p.agg.Covered(i)
		if p.shard == nil && ok == 0 {
			wrapped := fmt.Errorf("%s at n=%d seed %d: %w", p.prefix, n, firstSeed, firstErr)
			return nil, fmt.Errorf("%s at n=%d: all %d seeds failed: %w", p.prefix, n, eg.Seeds, wrapped)
		}
		if covered > 0 {
			pts = append(pts, gridPoint[V]{N: n, Value: v, OK: ok, Covered: covered})
		}
	}
	return pts, nil
}

// lambdaPass is the throughput pass over a grid: eval scores each
// instance and a point's surviving seeds fold into their mean.
func lambdaPass(g *sizeGrid, eval evalFn[float64]) gridPass[float64, float64] {
	return gridPass[float64, float64]{
		phase:  "sweep",
		prefix: "experiments: " + g.name,
		eval:   eval,
		agg:    engine.NewMeanAgg(len(g.sizes)),
	}
}

// lambdaSeries renders a lambda pass's points as the measured series
// with per-point coverage. A sharded point without a surviving seed has
// no mean and is left out.
func lambdaSeries(name string, pts []gridPoint[float64]) *measure.Series {
	series := &measure.Series{Name: name}
	for _, pt := range pts {
		if pt.OK > 0 {
			series.AddCounted(float64(pt.N), pt.Value, pt.OK, pt.Covered)
		}
	}
	return series
}

// scopeFn renders the canonical cell-cache scope of one grid point
// (network size). Nil means the pass's cells have no declarative scope
// and must not be cached.
type scopeFn func(n int) ([]byte, error)

// sweepScenario resolves a declarative scenario's size grid once and
// runs its lambda pass on it: the scenario's name salts the seed
// derivation, its scheme set scores each instance, its optional fault
// plan is installed into every cell, its optional shard spec selects
// the block of the global grid this process evaluates and its cell
// scope keys the optional cell cache. A delay scenario then
// runs its delay pass over the same grid, and so over the same
// instances; Validate guarantees delay scenarios are unsharded.
func sweepScenario(o Options, sc *scenario.Scenario, sizes []int) (*measure.Series, []delayPoint, error) {
	placement, err := sc.PlacementScheme()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: scenario %s: %w", sc.Name, err)
	}
	g, err := newSizeGrid(sc.Name, sizes, sc.Base.Params(0), placement, sc.FaultConfig())
	if err != nil {
		return nil, nil, err
	}
	lp := lambdaPass(g, scenarioEval(sc.Schemes))
	lp.shard, lp.scope = sc.Shard, sc.CellScope
	pts, err := runGrid(o, g, lp)
	if err != nil {
		return nil, nil, err
	}
	series := lambdaSeries(g.name, pts)
	if sc.Delay == nil {
		return series, nil, nil
	}
	schemes := sc.DelaySchemes()
	dpts, err := runGrid(o, g, delayPass(g, len(schemes), delayEval(schemes, sc.DelayQuantiles(), sc.AssocConfig())))
	if err != nil {
		return nil, nil, err
	}
	return series, dpts, nil
}

// sweepCellCache adapts the persistent cell store to the engine's
// CellCache: grid coordinates map to (scope, n, derived seed) keys, so
// a cell hits if and only if the exact same instance would be rebuilt.
// Keys are shard-blind (global coordinates, derived seeds), so an
// unsharded run replays the cells its shards stored, and a resumed or
// re-partitioned sweep replays another run's cells. Gets and Puts run
// on worker goroutines; the adapter's state is read-only after
// construction, the seed derivation is pure, and the store is
// concurrency-safe.
type sweepCellCache struct {
	store  *cellcache.Store
	scopes [][]byte // per point
	grid   *sizeGrid
}

// newSweepCellCache precomputes the per-point scopes for a grid.
func newSweepCellCache(store *cellcache.Store, scope scopeFn, g *sizeGrid) (*sweepCellCache, error) {
	scopes := make([][]byte, len(g.sizes))
	for i, n := range g.sizes {
		b, err := scope(n)
		if err != nil {
			return nil, err
		}
		scopes[i] = b
	}
	return &sweepCellCache{store: store, scopes: scopes, grid: g}, nil
}

// Get implements engine.CellCache. Every store failure — miss, I/O
// error, corruption (evicted on the spot) — degrades to a recompute.
func (c *sweepCellCache) Get(point, seed int) (any, bool) {
	key := cellcache.Key(c.scopes[point], c.grid.sizes[point], c.grid.cellSeed(point, seed))
	e, _, err := c.store.Get(key)
	if err != nil {
		return nil, false
	}
	return e.Value, true
}

// Put implements engine.CellCache. Persistence is best-effort: a full
// disk or non-finite value loses the entry, never the run.
func (c *sweepCellCache) Put(point, seed int, v any) {
	val, ok := v.(float64)
	if !ok {
		return
	}
	_ = c.store.Put(c.scopes[point], c.grid.sizes[point], c.grid.cellSeed(point, seed), val)
}
