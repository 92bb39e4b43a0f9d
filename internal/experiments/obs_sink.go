package experiments

import (
	"fmt"
	"time"

	"hybridcap/internal/engine"
	"hybridcap/internal/mobility"
	"hybridcap/internal/obs"
	"hybridcap/internal/scenario"
)

// cellSink is the engine.CellObserver behind every observed sweep: it
// publishes cell counters and timing into the run's metrics registry,
// records one completed child span per cell under the sweep's phase
// span, and accumulates the phase tally for the run manifest. The
// engine delivers observations per cell, in grid order, on the caller's
// goroutine, so everything the sink writes is deterministic for every
// worker count.
type cellSink struct {
	rt    *obs.Runtime
	span  *obs.Span
	sizes []int

	cells, ok, construct, evaluate *obs.Counter
	seconds                        *obs.Histogram

	tally obs.PhaseTally
}

// newCellSink prepares the sink for one sweep phase. span is the phase
// span cells are recorded under; sizes maps point indices to network
// sizes for span labels.
func newCellSink(rt *obs.Runtime, phase string, span *obs.Span, sizes []int) *cellSink {
	reg := rt.Metrics
	return &cellSink{
		rt:        rt,
		span:      span,
		sizes:     sizes,
		cells:     reg.Counter("engine_cells_total"),
		ok:        reg.Counter("engine_cells_ok_total"),
		construct: reg.Counter("engine_cells_failed_construct_total"),
		evaluate:  reg.Counter("engine_cells_failed_evaluate_total"),
		seconds:   reg.Histogram("engine_cell_seconds", obs.DefSecondsBuckets()),
		tally:     obs.PhaseTally{Phase: phase},
	}
}

// ObserveCell implements engine.CellObserver.
func (s *cellSink) ObserveCell(point, seed int, d time.Duration, err error) {
	s.cells.Inc()
	s.seconds.Observe(d.Seconds())
	s.tally.Cells++
	switch engine.Phase(err) {
	case engine.PhaseConstruct:
		s.construct.Inc()
		s.tally.ConstructFailed++
	case engine.PhaseEvaluate:
		s.evaluate.Inc()
		s.tally.EvaluateFailed++
	case engine.PhaseCanceled:
		// Created lazily so uncanceled runs render the exact same
		// metrics text as before cancellation existed.
		s.rt.Metrics.Counter("engine_cells_canceled_total").Inc()
		s.tally.Canceled++
	default:
		if err == nil {
			s.ok.Inc()
			s.tally.OK++
		} else {
			// Untagged failures count as evaluation failures: the cell
			// ran and broke.
			s.evaluate.Inc()
			s.tally.EvaluateFailed++
		}
	}
	if s.span != nil {
		// Grids over size sweeps label cells by network size; grids over
		// other point sets (placements, outage fractions) fall back to the
		// point index.
		name := fmt.Sprintf("cell p=%d seed=%d", point, seed)
		if point >= 0 && point < len(s.sizes) {
			name = fmt.Sprintf("cell n=%d seed=%d", s.sizes[point], seed)
		}
		cell := s.span.Record(name, d)
		cell.SetError(err)
	}
}

// ObserveCachedCell implements engine.CachedCellObserver: the engine
// calls it (in grid order, right after the cell's ObserveCell) for
// every cell replayed from the persistent cell cache.
func (s *cellSink) ObserveCachedCell(point, seed int) {
	// Created lazily so cache-less runs render the exact same metrics
	// text as before the cell cache existed.
	s.rt.Metrics.Counter("engine_cells_cached_total").Inc()
	s.tally.Cached++
}

// finish pushes the accumulated tally into the runtime.
func (s *cellSink) finish() {
	s.rt.AddTally(s.tally)
}

// observeGrid attaches the run's observability sink to a grid when the
// options carry a runtime: it opens a phase span, counts the grid in
// engine_grids_total, and routes every cell outcome through a cellSink
// — counters, the timing histogram, one recorded child span per cell,
// and the manifest tally, which with the span carries the grid's
// shape. sizes maps point indices to network sizes for cell
// labels; nil falls back to point indices. The returned finish func
// pushes the tally and closes the phase span: call it once the grid's
// engine.Stream has returned. Unobserved runs get a no-op.
func observeGrid(o Options, phase string, g *engine.Grid, sizes []int) func() {
	if o.Obs == nil {
		return func() {}
	}
	span := o.Obs.Push(phase)
	o.Obs.Metrics.Counter("engine_grids_total").Inc()
	sink := newCellSink(o.Obs, phase, span, sizes)
	g.Obs = sink
	g.Clock = o.Obs.Clock
	return func() {
		sink.finish()
		o.Obs.Pop()
	}
}

// faultsLine formats a scenario's fault plan for reports and manifests,
// "" when none is declared.
func faultsLine(sc *scenario.Scenario) string {
	fc := sc.FaultConfig()
	if fc == nil {
		return ""
	}
	line := fmt.Sprintf(
		"faults: seed=%d bs-outage=%.3g count=%d edge-outage=%.3g derating=%.3g erasure=%.3g",
		fc.Seed, fc.BSOutageFraction, fc.BSOutageCount, fc.EdgeOutageFraction, fc.EdgeDerating, fc.WirelessErasure)
	if fc.BSOutageStart > 0 {
		// Appended conditionally: onset-less fault lines stay byte-exact.
		line += fmt.Sprintf(" outage-start=%d", fc.BSOutageStart)
	}
	return line
}

// buildManifest assembles the run manifest for a scenario run: the
// shard-blind canonical scenario hash (equal to the full hash for
// unsharded runs), the resolved grid with its coverage, the shard
// identity when partial, the fault plan, the kernel-cache activity over
// the run, and every phase tally the runtime collected.
func buildManifest(rt *obs.Runtime, sc *scenario.Scenario, o Options, sizes []int, before, after mobility.CacheStats) (*obs.Manifest, error) {
	hash, err := sc.BaseSHA256()
	if err != nil {
		return nil, err
	}
	lo, hi, err := shardedGrid(len(sizes), o.seeds(), sc.Shard).Coverage()
	if err != nil {
		return nil, err
	}
	m := &obs.Manifest{
		Schema:         obs.ManifestSchema,
		Name:           sc.Name,
		ScenarioSHA256: hash,
		Sizes:          append([]int(nil), sizes...),
		Seeds:          o.seeds(),
		Workers:        o.workers(),
		Faults:         faultsLine(sc),
		GridCells:      len(sizes) * o.seeds(),
		Coverage:       []obs.CellRange{{Start: lo, End: hi}},
		Cache: obs.CacheDelta{
			Hits:     after.Hits - before.Hits,
			Misses:   after.Misses - before.Misses,
			Bypasses: after.Bypasses - before.Bypasses,
		},
		Phases: rt.Tallies(),
	}
	m.DelaySchemes = sc.DelaySchemes()
	if sc.Shard != nil {
		m.Shard = &obs.ShardInfo{Index: sc.Shard.Index, Count: sc.Shard.Count}
	}
	return m, nil
}
