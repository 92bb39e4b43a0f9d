// Package experiments implements one runner per paper artifact: Table I
// and Figures 1-3, plus the supporting experiments E1-E14 listed in
// DESIGN.md (uniform density, optimal transmission range, dominance
// crossover, placement invariance, cluster isolation, triviality of
// mobility, access rate, optimal phi, fault resilience). Each runner
// returns a Result carrying data series, fitted exponents, ASCII
// renderings and the textual rows to compare against the paper.
//
// Every grid an experiment evaluates — sizes x seeds sweeps, parameter
// scans, placement matrices, outage sets — streams through
// engine.Stream under one observed phase span, and every cell that
// builds an instance takes one cell step (cellStep: build, optional
// fault plan, evaluate, phase-tagged failures, one recover). Size
// sweeps run on runGrid, which tolerates failing seeds; every other
// grid runs on strictGrid, where the first failure in grid order fails
// the experiment. Lambda sweeps are additionally described as
// declarative internal/scenario specs, so the canonical Table-I regimes
// are data (see Entry.Scenarios) rather than bespoke loops.
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"hybridcap/internal/cellcache"
	"hybridcap/internal/measure"
	"hybridcap/internal/network"
	"hybridcap/internal/obs"
	"hybridcap/internal/rng"
	"hybridcap/internal/scenario"
	"hybridcap/internal/traffic"
)

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (e.g. "T1", "F3L", "E4").
	ID string
	// Description says what the experiment reproduces.
	Description string
	// XName labels the x column of the series.
	XName string
	// Series holds the data the paper's artifact plots/tabulates.
	Series []*measure.Series
	// Fits holds fitted scaling exponents by series name.
	Fits map[string]*measure.Fit
	// Rows are preformatted report lines (the "same rows the paper
	// reports").
	Rows []string
	// Ascii is a terminal rendering of the figure, if applicable.
	Ascii string
	// Manifest is the run manifest for scenario runs: the canonical
	// scenario hash, the resolved grid, cache activity and per-phase
	// cell tallies. Nil for experiments that are not scenario sweeps.
	Manifest *obs.Manifest
}

// Options tunes experiment cost.
type Options struct {
	// Sizes is the sweep of network sizes n; nil selects per-experiment
	// defaults.
	Sizes []int
	// Seeds is the number of random seeds averaged per point; zero
	// selects 3.
	Seeds int
	// Quick shrinks defaults for use in unit tests and smoke runs.
	Quick bool
	// Workers bounds the number of goroutines evaluating grid cells
	// concurrently; zero selects runtime.NumCPU(). Results are
	// byte-identical for every worker count: seeds are pre-derived from
	// the splittable rng and merged in grid order, so scheduling cannot
	// leak into the output.
	Workers int
	// Obs, if set, is the observability runtime the run publishes into:
	// sweeps open phase spans and feed cell counters, timing histograms
	// and manifest tallies through it. Nil runs unobserved (scenario
	// runs still assemble a manifest through a private runtime).
	Obs *obs.Runtime
	// Ctx, if set, cancels the run: the engine stops scheduling new
	// grid cells as soon as the context ends (per-run deadlines, client
	// aborts, daemon shutdown), and a canceled sweep fails with the
	// context error instead of returning partial data. Nil never
	// cancels.
	Ctx context.Context
	// CellCache, if set, memoizes scenario-sweep cell values on disk:
	// cells keyed by (canonical cell scope, size, derived seed) replay
	// from the store instead of re-evaluating, and fresh successes are
	// stored back. Only declarative scenario sweeps participate (their
	// scope captures everything the cell depends on); cached results
	// are byte-identical to recomputation, warm or cold, for every
	// worker count.
	CellCache *cellcache.Store
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	//lint:ignore ctxflow Options.Ctx is the optional caller context; absent one, an uncancellable sweep is the documented default
	return context.Background()
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return 2
	}
	return 3
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o Options) sizes(def, quick []int) []int {
	if len(o.Sizes) > 0 {
		return o.Sizes
	}
	if o.Quick {
		return quick
	}
	return def
}

// build is the one instance builder: the deterministic network cfg
// describes plus the permutation traffic drawn from cfg.Seed.
func build(cfg network.Config) (*network.Network, *traffic.Pattern, error) {
	nw, err := network.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	tr, err := traffic.NewPermutation(cfg.Params.N, rng.New(cfg.Seed).Derive("traffic").Rand())
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	return nw, tr, nil
}

// Runner executes one experiment under the given options.
type Runner func(Options) (*Result, error)

// Entry is one registry row: the experiment id, its runner, and — when
// the artifact is a lambda sweep — the declarative scenarios the runner
// executes. Scenarios is nil for experiments whose artifact is not a
// size sweep (their grids still run through internal/engine).
type Entry struct {
	ID        string
	Run       Runner
	Scenarios []*scenario.Scenario
}

// observed brackets a runner in an "experiment <id>" span when the
// options carry an observability runtime, so traces follow the
// run -> experiment -> phase -> cell hierarchy. Unobserved runs pass
// through untouched.
func observed(id string, run Runner) Runner {
	return func(o Options) (*Result, error) {
		if o.Obs == nil {
			return run(o)
		}
		span := o.Obs.Push("experiment " + id)
		defer o.Obs.Pop()
		res, err := run(o)
		span.SetError(err)
		return res, err
	}
}

// All returns the full experiment registry in presentation order.
func All() []Entry {
	entries := []Entry{
		{ID: "T1", Run: Table1, Scenarios: table1Scenarios()},
		{ID: "F1", Run: Figure1},
		{ID: "F2", Run: Figure2},
		{ID: "F3L", Run: Figure3Left},
		{ID: "F3R", Run: Figure3Right},
		{ID: "E1", Run: UniformDensity},
		{ID: "E2", Run: OptimalRT},
		{ID: "E3", Run: NoBSCapacity, Scenarios: []*scenario.Scenario{e3Scenario()}},
		{ID: "E4", Run: DominanceCrossover},
		{ID: "E5", Run: PlacementInvariance},
		{ID: "E6", Run: ClusterIsolation},
		{ID: "E7", Run: TrivialMobilityPersistence},
		{ID: "E8", Run: WeakNoBS, Scenarios: []*scenario.Scenario{e8Scenario()}},
		{ID: "E9", Run: OptimalPhi},
		{ID: "E10", Run: AccessRate},
		{ID: "E11", Run: DelayThroughput},
		{ID: "E12", Run: BSOutage},
		{ID: "E13", Run: KernelInvariance},
		{ID: "E14", Run: Resilience},
		{ID: "E15", Run: DelayCapacity, Scenarios: []*scenario.Scenario{e15StrongScenario(), e15WeakScenario()}},
	}
	for i := range entries {
		entries[i].Run = observed(entries[i].ID, entries[i].Run)
	}
	return entries
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
