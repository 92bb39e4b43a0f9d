package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hybridcap/internal/capacity"
	"hybridcap/internal/delay"
	"hybridcap/internal/engine"
	"hybridcap/internal/experiments"
	"hybridcap/internal/faults"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scenario"
	"hybridcap/internal/traffic"
)

// sweepSeeds is the number of seeds per grid point of both sweep
// workloads.
const sweepSeeds = 2

// sweep is the table1 and delay-sweep workload: a list of declarative
// scenarios, run untraced through experiments.RunScenario and traced
// through engine.Stream with a cell function built from the layers'
// public calls. The traced pass must reproduce the untraced per-point
// means bit for bit.
type sweep struct {
	scs     []*scenario.Scenario
	warm    []*scenario.Scenario
	workers int
	fit     bool

	// ref holds the first untraced pass's per-point results; last the
	// latest untraced pass's, with its report rows in lastRows.
	ref, last []points
	lastRows  [][]string
	fitDev    float64
}

// points is a lambda series' per-point means and surviving seed counts.
type points struct {
	mean []float64
	ok   []int
}

func (a points) equal(b points) bool {
	return sameBits(a.mean, b.mean) && slices.Equal(a.ok, b.ok)
}

// newTable1 sweeps the five Table-I rows of the experiments registry.
func newTable1(cfg config) (*sweep, error) {
	for _, e := range experiments.All() {
		if e.ID == "T1" {
			return newSweep(cfg, e.Scenarios, true)
		}
	}
	return nil, errors.New("experiments registry has no T1 entry")
}

// newDelaySweep sweeps the shipped d2d-baseline and handover-churn
// scenarios: lambda plus delay accounting.
func newDelaySweep(cfg config) (*sweep, error) {
	var base []*scenario.Scenario
	for _, name := range []string{"d2d-baseline", "handover-churn"} {
		sc, err := scenario.Load(filepath.Join("examples", "scenarios", name+".json"))
		if err != nil {
			return nil, err
		}
		base = append(base, sc)
	}
	return newSweep(cfg, base, false)
}

// newSweep salts every scenario name with the workload seed (the name
// salts cell-seed derivation, so a new seed draws new instances) and
// prepares the quick-size copies the untimed warm pass runs.
func newSweep(cfg config, base []*scenario.Scenario, fit bool) (*sweep, error) {
	s := &sweep{workers: cfg.workers, fit: fit}
	for _, b := range base {
		sc := *b
		sc.Name = fmt.Sprintf("%s-s%d", b.Name, cfg.seed)
		sc.Shard = nil
		sc.QuickSizes = nil
		warm := sc
		warm.Name += "-warm"
		warm.Sizes = b.SizesFor(true)
		if cfg.tiny {
			sc.Sizes = warm.Sizes
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		s.scs = append(s.scs, &sc)
		s.warm = append(s.warm, &warm)
	}
	return s, nil
}

func (s *sweep) options() experiments.Options {
	return experiments.Options{Workers: s.workers, Seeds: sweepSeeds}
}

// setup runs the untimed warm pass at quick sizes.
func (s *sweep) setup(ctx context.Context) error {
	for _, sc := range s.warm {
		if _, err := experiments.RunScenario(ctx, sc, s.options()); err != nil {
			return err
		}
	}
	return nil
}

// cells is the number of grid cells one run of sc evaluates.
func cells(sc *scenario.Scenario) int {
	n := len(sc.Sizes) * sweepSeeds
	if sc.Delay != nil {
		n *= 2
	}
	return n
}

func (s *sweep) pass(ctx context.Context, rec *recorder) (passStats, error) {
	if rec != nil {
		return s.tracedPass(ctx, rec)
	}
	var ps passStats
	first := s.ref == nil
	if first {
		s.ref = make([]points, len(s.scs))
	}
	s.last = make([]points, len(s.scs))
	s.lastRows = make([][]string, len(s.scs))
	for i, sc := range s.scs {
		t0 := time.Now()
		res, err := experiments.RunScenario(ctx, sc, s.options())
		ps.wall += time.Since(t0)
		ps.ops += cells(sc)
		if err != nil {
			ps.failed += cells(sc)
			ps.problems = append(ps.problems, fmt.Sprintf("%s: %v", sc.Name, err))
			continue
		}
		// Cells the program itself reports failed (an unroutable
		// instance) are part of its output, which the sweep tolerates:
		// they count in engine.failed_cells, not as benchmark failures.
		series := res.Series[0]
		got := points{mean: slices.Clone(series.Y), ok: slices.Clone(series.OK)}
		if first {
			s.ref[i] = got
		} else if !got.equal(s.ref[i]) {
			ps.failed += cells(sc)
			ps.problems = append(ps.problems, fmt.Sprintf("%s: per-point results changed between passes", sc.Name))
		}
		s.last[i], s.lastRows[i] = got, res.Rows
		if s.fit && first {
			fit, ok := res.Fits[sc.Name]
			if !ok {
				return ps, fmt.Errorf("%s: no fit in result", sc.Name)
			}
			theory := capacity.PerNodeCapacity(sc.Base.Params(sc.Sizes[0])).E
			s.fitDev = math.Max(s.fitDev, math.Abs(fit.Exponent-theory))
		}
	}
	// A sweep's user waits for the whole sweep: one request per pass.
	ps.lat = []time.Duration{ps.wall}
	return ps, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// grid is a scenario's resolved sweep: per-point parameters and the
// cell-seed derivation experiments uses, so a traced cell rebuilds
// exactly the instance the untraced run measured.
type grid struct {
	sizes     []int
	params    []scaling.Params
	srcs      []rng.Source
	placement network.BSPlacement
	fc        *faults.Config
}

func newGrid(sc *scenario.Scenario) (*grid, error) {
	placement, err := sc.PlacementScheme()
	if err != nil {
		return nil, err
	}
	g := &grid{sizes: sc.Sizes, placement: placement, fc: sc.FaultConfig()}
	src := rng.New(0xE).Derive("sweep").Derive(sc.Name)
	base := sc.Base.Params(0)
	for _, n := range sc.Sizes {
		p := base.WithN(n)
		if err := p.Validate(); err != nil {
			return nil, err
		}
		g.params = append(g.params, p)
		g.srcs = append(g.srcs, src.DeriveN("n", n))
	}
	return g, nil
}

func (g *grid) seed(point, seed int) uint64 { return g.srcs[point].DeriveN("seed", seed).Uint64() }

// tracedPass re-runs every scenario's lambda (and delay) grid with one
// span tree per cell and checks the means against the latest untraced
// pass.
func (s *sweep) tracedPass(ctx context.Context, rec *recorder) (passStats, error) {
	var ps passStats
	for i, sc := range s.scs {
		g, err := newGrid(sc)
		if err != nil {
			return ps, err
		}
		eg := engine.Grid{Points: len(g.sizes), Seeds: sweepSeeds, Workers: s.workers}
		agg := engine.NewMeanAgg(len(g.sizes))
		t0 := time.Now()
		err = engine.Stream(ctx, eg,
			func(p, seed int) (float64, error) { return lambdaCell(rec, sc, g, p, seed) },
			func(p, seed int, out engine.Outcome[float64]) {
				if out.Err != nil {
					rec.add("engine.failed_cells", 1)
				}
				agg.Cell(p, seed, out)
			})
		if err != nil {
			return ps, err
		}
		var dsum [][]delay.Stats
		var dok []int
		var delayErr error
		if sc.Delay != nil {
			dsum = make([][]delay.Stats, len(g.sizes))
			dok = make([]int, len(g.sizes))
			err = engine.Stream(ctx, eg,
				func(p, seed int) ([]delay.Stats, error) { return delayCell(rec, sc, g, p, seed) },
				func(p, _ int, out engine.Outcome[[]delay.Stats]) {
					if out.Err != nil {
						rec.add("engine.failed_cells", 1)
						return
					}
					if dsum[p] == nil {
						dsum[p] = make([]delay.Stats, len(out.Value))
					}
					for j := range out.Value {
						if err := dsum[p][j].Add(out.Value[j]); err != nil {
							delayErr = err
							return
						}
					}
					dok[p]++
				})
			if err == nil {
				err = delayErr
			}
			if err != nil {
				return ps, err
			}
		}
		ps.wall += time.Since(t0)
		ps.ops += cells(sc)

		var got points
		for p := range g.sizes {
			mean, ok, _, _ := agg.Point(p)
			got.mean = append(got.mean, mean)
			got.ok = append(got.ok, ok)
		}
		if !got.equal(s.last[i]) {
			ps.failed += len(g.sizes) * sweepSeeds
			ps.problems = append(ps.problems, fmt.Sprintf("%s: traced per-point lambda differs from untraced", sc.Name))
		}
		for p := range dsum {
			for j, name := range sc.DelaySchemes() {
				if dok[p] == 0 || !hasDelayRow(s.lastRows[i], g.sizes[p], name, dsum[p][j], dok[p]) {
					ps.failed++
					ps.problems = append(ps.problems, fmt.Sprintf("%s n=%d %s: traced mean delay differs from untraced", sc.Name, g.sizes[p], name))
				}
			}
		}
	}
	return ps, nil
}

// hasDelayRow reports whether the untraced report carries the traced
// cross-seed mean delay, in the report's own row format.
func hasDelayRow(rows []string, n int, scheme string, sum delay.Stats, ok int) bool {
	// Scale by the reciprocal, as the report's cross-seed mean does.
	mean := sum.Mean * (1 / float64(ok))
	prefix := fmt.Sprintf("delay n=%6d %-13s mean=%.5g ", n, scheme, mean)
	for _, r := range rows {
		if strings.HasPrefix(r, prefix) {
			return true
		}
	}
	return false
}

// buildInstance constructs a cell's network and permutation traffic the
// way experiments does, timing each layer.
func buildInstance(rec *recorder, root span, p scaling.Params, seed uint64, placement network.BSPlacement, fc *faults.Config) (*network.Network, *traffic.Pattern, error) {
	sp := root.child("network.new")
	cfg := network.Config{Params: p, Seed: seed, BSPlacement: placement}
	if fc != nil && fc.Active() {
		plan, err := faults.New(*fc)
		if err != nil {
			sp.end()
			return nil, nil, err
		}
		cfg.Faults = plan
	}
	nw, err := network.New(cfg)
	sp.end()
	rec.add("network.new.calls", 1)
	if err != nil {
		return nil, nil, err
	}
	sp = root.child("traffic.permutation")
	tr, err := traffic.NewPermutation(p.N, rng.New(seed).Derive("traffic").Rand())
	sp.end()
	return nw, tr, err
}

// cellInstance opens a cell's tree, builds its instance and times one
// linkcap.NewAnalytic call, the link-capacity model every scheme starts
// from (it reads the cached eta table, so its cost shows a cold cache).
func cellInstance(rec *recorder, name string, g *grid, point, seed int) (span, *network.Network, *traffic.Pattern, error) {
	root := rec.root(fmt.Sprintf("%s n=%d seed=%d", name, g.sizes[point], seed))
	nw, tr, err := buildInstance(rec, root, g.params[point], g.seed(point, seed), g.placement, g.fc)
	if err == nil {
		sp := root.child("linkcap.analytic")
		_, err = linkcap.NewAnalytic(nw, 0)
		sp.end()
	}
	if err != nil {
		root.fail(err)
	}
	return root, nw, tr, err
}

// lambdaCell scores one instance with the best of the scenario's
// schemes, as experiments does.
func lambdaCell(rec *recorder, sc *scenario.Scenario, g *grid, point, seed int) (float64, error) {
	root, nw, tr, err := cellInstance(rec, "cell "+sc.Name, g, point, seed)
	defer root.end()
	if err != nil {
		return 0, err
	}
	best, ok := 0.0, false
	var lastErr error
	for _, name := range sc.Schemes {
		sp := root.child("routing." + name)
		v, err := evalScheme(rec, name, nw, tr)
		sp.end()
		if err != nil {
			lastErr = err
			continue
		}
		ok = true
		best = math.Max(best, v)
	}
	if !ok {
		root.fail(lastErr)
		return 0, lastErr
	}
	return best, nil
}

func evalScheme(rec *recorder, name string, nw *network.Network, tr *traffic.Pattern) (float64, error) {
	sch, err := routing.ByName(name, nw.Cfg.Params)
	if err != nil {
		return 0, err
	}
	ev, err := sch.Evaluate(nw, tr)
	if err != nil {
		return 0, err
	}
	rec.add("routing.unroutable", float64(ev.Failures))
	if ev.Failures > 0 {
		return 0, fmt.Errorf("%s: %d unroutable pairs", name, ev.Failures)
	}
	return ev.Lambda, nil
}

// delayCell runs every delay scheme's analytic model over one instance.
func delayCell(rec *recorder, sc *scenario.Scenario, g *grid, point, seed int) ([]delay.Stats, error) {
	root, nw, tr, err := cellInstance(rec, "cell "+sc.Name+" delay", g, point, seed)
	defer root.end()
	if err != nil {
		return nil, err
	}
	schemes := sc.DelaySchemes()
	out := make([]delay.Stats, len(schemes))
	for i, name := range schemes {
		sp := root.child("delay." + name)
		st, err := evalDelay(rec, sc, name, nw, tr)
		sp.end()
		if err != nil {
			root.fail(err)
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

func evalDelay(rec *recorder, sc *scenario.Scenario, name string, nw *network.Network, tr *traffic.Pattern) (delay.Stats, error) {
	m, err := routing.DelayModelByName(name, nw.Cfg.Params, sc.AssocConfig())
	if err != nil {
		return delay.Stats{}, err
	}
	col, err := delay.NewCollector(sc.DelayQuantiles()...)
	if err != nil {
		return delay.Stats{}, err
	}
	observed := 0
	unroutable, err := m.EvaluateDelay(nw, tr, func(b delay.Breakdown) {
		observed++
		col.Observe(b)
	})
	if err != nil {
		return delay.Stats{}, err
	}
	for u := 0; u < unroutable; u++ {
		col.ObserveUnroutable()
	}
	rec.add("delay.observations", float64(observed))
	rec.add("delay.unroutable", float64(unroutable))
	return col.Stats(), nil
}

// finish adds the engine's utilization, its slowest cell and, for
// table1, the fit deviation from theory.
func (s *sweep) finish(_ context.Context, rep *report, traced []*passRecord) {
	var busy, maxCell []float64
	for _, p := range traced {
		var sum, longest time.Duration
		for _, d := range p.rec.rootDurations() {
			sum += d
			longest = max(longest, d)
		}
		if p.wall > 0 {
			busy = append(busy, sum.Seconds()/(float64(s.workers)*p.wall.Seconds()))
		}
		maxCell = append(maxCell, longest.Seconds())
	}
	rep.layer["engine.busy_frac"] = median(busy)
	rep.layer["engine.max_cell_s"] = median(maxCell)
	if s.fit {
		rep.layer["fit_max_abs_dev"] = s.fitDev
	}
}
