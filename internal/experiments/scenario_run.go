package experiments

import (
	"context"
	"fmt"

	"hybridcap/internal/asciiplot"
	"hybridcap/internal/capacity"
	"hybridcap/internal/cells"
	"hybridcap/internal/engine"
	"hybridcap/internal/measure"
	"hybridcap/internal/mobility"
	"hybridcap/internal/obs"
	"hybridcap/internal/scenario"
)

// RunScenario executes one declarative scenario through the grid engine
// and packages the sweep as a Result: the measured lambda series with
// per-point coverage, the regime classification and theoretical
// capacity order at the largest size, and — when the scenario requests
// it — a power-law fit of the measured exponent. This is the runner
// behind `capsim -scenario file.json` and the scenario daemon's only
// execution path (served results match the CLI byte for byte); the
// built-in Table-I regimes (Entry.Scenarios) execute through the same
// path. A canceled ctx stops the sweep promptly and fails the run with
// the context error — a canceled run never yields a partial Result.
//
// A sharded scenario (sc.Shard set) evaluates only its block of the
// global grid: the Result carries the shard's partial series, a cells
// artifact with the raw per-cell outcomes, and a manifest recording the
// shard identity and grid coverage; fits and charts are deferred to the
// merged run (cmd/capmerge), whose output is byte-identical to an
// unsharded run of the same scenario.
func RunScenario(ctx context.Context, sc *scenario.Scenario, o Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
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
	var rec cellRecorder
	var cellsFile *cells.File
	if sc.Shard != nil {
		// The static Validate bound uses the declared grid; the resolved
		// one (quick sizes, defaulted seeds) may be smaller.
		if err := sc.Shard.CheckGrid(sc.Name, len(sizes)*seeds); err != nil {
			return nil, err
		}
		var err error
		cellsFile, rec, err = newCellsRecorder(sc, sizes, seeds)
		if err != nil {
			return nil, err
		}
	}
	rt.Push("scenario " + sc.Name)
	cacheBefore := mobility.ReadCacheStats()
	// The delay pass evaluates the lambda pass's exact cells, so both
	// run inside the same scenario span and cache-delta window.
	series, dpts, err := sweepScenario(o, sc, sizes, rec)
	cacheAfter := mobility.ReadCacheStats()
	rt.Pop()
	if err != nil {
		return nil, err
	}
	res, err := AssembleScenario(sc, sizes, seeds, series)
	if err != nil {
		return nil, err
	}
	if sc.Delay != nil {
		res.Rows = append(res.Rows, formatDelayRows(sc.DelaySchemes(), sc.DelayQuantiles(), dpts)...)
	}
	if sc.Shard != nil {
		lo, hi, cerr := shardedGrid(len(sizes), seeds, sc.Shard).Coverage()
		if cerr != nil {
			return nil, cerr
		}
		res.Rows = append(res.Rows, fmt.Sprintf("shard %d/%d: cells [%d,%d) of %d",
			sc.Shard.Index, sc.Shard.Count, lo, hi, len(sizes)*seeds))
		res.Cells = cellsFile
	}
	man, err := buildManifest(rt, sc, o, sizes, cacheBefore, cacheAfter)
	if err != nil {
		return nil, err
	}
	res.Manifest = man
	return res, nil
}

// AssembleScenario packages a scenario sweep's measured series as a
// Result: the description, the report rows (grid header, fault line,
// per-point coverage, regime classification), the requested power-law
// fit and the ascii chart. It is shared by RunScenario and the
// shard-merge path (cmd/capmerge), so a merged report is assembled by
// exactly the code an unsharded run uses — the byte-identity guarantee
// is structural, not re-implemented. For a sharded scenario the fit and
// chart are skipped: one shard's partial series is not the artifact the
// paper plots.
func AssembleScenario(sc *scenario.Scenario, sizes []int, seeds int, series *measure.Series) (*Result, error) {
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
	chart := asciiplot.LineChart{LogX: true, LogY: true, Title: "lambda vs n"}
	ascii, err := chart.Render([]string{series.Name}, [][]float64{series.X}, [][]float64{series.Y})
	if err != nil {
		return nil, err
	}
	res.Ascii = ascii
	return res, nil
}

// newCellsRecorder prepares the cells artifact for a sharded run: the
// shard-stripped canonical scenario (the sweep's shard-blind content
// address) plus a recorder appending every covered cell outcome in grid
// order.
func newCellsRecorder(sc *scenario.Scenario, sizes []int, seeds int) (*cells.File, cellRecorder, error) {
	base := sc.WithoutShard()
	baseJSON, err := base.Marshal()
	if err != nil {
		return nil, nil, err
	}
	baseHash, err := base.SHA256()
	if err != nil {
		return nil, nil, err
	}
	f := &cells.File{
		Schema:         cells.Schema,
		Name:           sc.Name,
		ScenarioSHA256: baseHash,
		Scenario:       string(baseJSON),
		Sizes:          append([]int(nil), sizes...),
		Seeds:          seeds,
		GridCells:      len(sizes) * seeds,
	}
	rec := func(point, seed int, cellSeed uint64, out engine.Outcome[float64]) {
		c := cells.Cell{
			Index: point*seeds + seed,
			N:     sizes[point],
			Seed:  cellSeed,
			Value: out.Value,
		}
		if out.Err != nil {
			c.Err = out.Err.Error()
			c.Value = 0
		}
		f.Cells = append(f.Cells, c)
	}
	return f, rec, nil
}
