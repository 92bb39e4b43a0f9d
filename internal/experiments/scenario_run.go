package experiments

import (
	"context"
	"errors"
	"fmt"

	"hybridcap/internal/asciiplot"
	"hybridcap/internal/capacity"
	"hybridcap/internal/measure"
	"hybridcap/internal/mobility"
	"hybridcap/internal/obs"
	"hybridcap/internal/scenario"
)

// ErrShardNoCache marks a sharded scenario run without a cell cache: a
// shard's cells reach the merged run only through the cache, so without
// one the shard's work would be lost.
var ErrShardNoCache = errors.New("a sharded run needs a cell cache to store its cells")

// RunScenario executes one declarative scenario through the grid engine
// and packages the sweep as a Result: the measured lambda series with
// per-point coverage, the per-scheme delay rows of a delay scenario
// (measured on the same instances, one build per cell), the regime
// classification and theoretical capacity order at the largest size,
// and — when the scenario requests it — a power-law fit of the
// measured exponent. This is the runner behind `capsim -scenario
// file.json` and the scenario daemon's only execution path (served
// results match the CLI byte for byte); the built-in Table-I regimes
// (Entry.Scenarios) execute through the same path. A canceled ctx stops
// the sweep promptly and fails the run with the context error — a
// canceled run never yields a partial Result.
//
// A sharded scenario (sc.Shard set) evaluates only its block of the
// global grid and stores every successful cell, delay half included, in
// o.CellCache, which it therefore requires: the Result carries the
// shard's partial series and a manifest recording the shard identity
// and grid coverage, with no fit or chart. The shards of a sweep merge
// through the cache they share: an unsharded run of the same scenario
// over it replays every stored cell and computes only the rest (failed
// cells, which are never stored, and the blocks of shards that did not
// finish), so its report and manifest are the unsharded run's own.
func RunScenario(ctx context.Context, sc *scenario.Scenario, o Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Shard != nil && o.CellCache == nil {
		return nil, fmt.Errorf("experiments: scenario %s: %w", sc.Name, ErrShardNoCache)
	}
	o.Ctx = ctx
	if o.Seeds == 0 && sc.Seeds > 0 {
		o.Seeds = sc.Seeds
	}
	rt := o.Obs
	if rt == nil {
		// Scenario runs always carry a manifest; an unobserved run
		// assembles it through a private frozen-clock runtime so the
		// process-default registry stays untouched.
		rt = obs.NewRuntimeWith(nil, obs.NewRegistry())
		o.Obs = rt
	}
	sizes := o.sizes(sc.SizesFor(false), sc.SizesFor(true))
	seeds := o.seeds()
	if sc.Shard != nil {
		// The static Validate bound uses the declared grid; the resolved
		// one (quick sizes, defaulted seeds) may be smaller.
		if err := sc.Shard.CheckGrid(sc.Name, len(sizes)*seeds); err != nil {
			return nil, err
		}
	}
	rt.Push("scenario " + sc.Name)
	cacheBefore := mobility.ReadCacheStats()
	series, pts, err := sweepScenario(o, sc, sizes)
	cacheAfter := mobility.ReadCacheStats()
	rt.Pop()
	if err != nil {
		return nil, err
	}
	res, err := assembleScenario(sc, sizes, seeds, series)
	if err != nil {
		return nil, err
	}
	if sc.Delay != nil {
		res.Rows = append(res.Rows, formatDelayRows(sc.DelaySchemes(), sc.DelayQuantiles(), pts)...)
	}
	if sc.Shard != nil {
		lo, hi, cerr := shardedGrid(len(sizes), seeds, sc.Shard).Coverage()
		if cerr != nil {
			return nil, cerr
		}
		res.Rows = append(res.Rows, fmt.Sprintf("shard %d/%d: cells [%d,%d) of %d",
			sc.Shard.Index, sc.Shard.Count, lo, hi, len(sizes)*seeds))
	}
	man, err := buildManifest(rt, sc, o, sizes, cacheBefore, cacheAfter)
	if err != nil {
		return nil, err
	}
	res.Manifest = man
	return res, nil
}

// assembleScenario packages a scenario sweep's measured series as a
// Result: the description, the report rows (grid header, fault line,
// per-point coverage, regime classification), the requested power-law
// fit and the ascii chart. A sharded run gets neither fit nor chart:
// one shard's partial series is not the artifact the paper plots. Nor
// does a one-size series get a chart: a single point spans no decade.
func assembleScenario(sc *scenario.Scenario, sizes []int, seeds int, series *measure.Series) (*Result, error) {
	desc := sc.Description
	if desc == "" {
		desc = fmt.Sprintf("scenario %s", sc.Name)
	}
	res := &Result{
		ID:          sc.Name,
		Description: desc,
		XName:       "n",
		Series:      []*measure.Series{series},
	}
	placement, err := sc.PlacementScheme()
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, fmt.Sprintf("schemes %v, placement %s, %d sizes x %d seeds",
		sc.Schemes, placement, len(sizes), seeds))
	if line := faultsLine(sc); line != "" {
		res.Rows = append(res.Rows, line)
	}
	for i := range series.X {
		res.Rows = append(res.Rows, fmt.Sprintf("n=%6.0f lambda=%.5g seeds-ok=%d/%d",
			series.X[i], series.Y[i], series.OK[i], series.Attempts[i]))
	}
	p := sc.Base.Params(sizes[len(sizes)-1])
	regime, _ := capacity.Classify(p)
	res.Rows = append(res.Rows, fmt.Sprintf("regime %v, theory capacity %v, optimal RT %v",
		regime, capacity.PerNodeCapacity(p), capacity.OptimalRT(p)))
	if sc.Shard != nil {
		return res, nil
	}
	if sc.Fit {
		fit, err := series.Fit()
		if err != nil {
			return nil, fmt.Errorf("experiments: fit %s: %w", sc.Name, err)
		}
		res.Fits = map[string]*measure.Fit{sc.Name: fit}
	}
	if series.Len() < 2 {
		return res, nil
	}
	chart := asciiplot.LineChart{LogX: true, LogY: true, Title: "lambda vs n"}
	ascii, err := chart.Render([]string{series.Name}, [][]float64{series.X}, [][]float64{series.Y})
	if err != nil {
		return nil, err
	}
	res.Ascii = ascii
	return res, nil
}
