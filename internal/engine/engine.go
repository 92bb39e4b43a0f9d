// Package engine is the deterministic grid-execution engine behind
// every experiment: a bounded worker pool evaluating the cells of a
// points x seeds grid, with outcomes streamed back in grid order so the
// result is byte-identical to a serial run for every worker count.
// Stream is the one grid runner; callers fold its grid-order
// deliveries themselves (MeanAgg for tolerant per-point means).
//
// The engine owns the three properties every sweep in this repository
// must share:
//
//   - determinism: cells are self-contained (seeds are derived by the
//     caller from the cell's coordinates), and every outcome and
//     observation is delivered in grid order on the caller's goroutine;
//   - bounded concurrency and memory: at most Workers goroutines run at
//     once, at most 2×Workers completed cells wait for delivery, the
//     pool never outlives a run, and a panicking cell is converted to
//     an error instead of tearing the pool down;
//   - phase-tagged failures: a failed cell says whether instance
//     construction or evaluation broke, so degraded sweeps stay
//     diagnosable.
package engine

import (
	"fmt"
	"strings"
	"time"
)

// Cell-failure phase tags: a failed cell's error says whether instance
// construction or scheme evaluation broke, or whether the cell was
// never run because the grid's context was canceled first.
const (
	PhaseConstruct = "construct instance"
	PhaseEvaluate  = "evaluate"
	PhaseCanceled  = "canceled"
)

// ConstructErr tags err as an instance-construction failure.
func ConstructErr(err error) error { return fmt.Errorf("%s: %w", PhaseConstruct, err) }

// EvaluateErr tags err as an evaluation failure.
func EvaluateErr(err error) error { return fmt.Errorf("%s: %w", PhaseEvaluate, err) }

// CanceledErr tags err as a cancellation: the cell was never dispatched
// because the run's context ended first.
func CanceledErr(err error) error { return fmt.Errorf("%s: %w", PhaseCanceled, err) }

// Phase classifies a cell failure by its phase tag: PhaseConstruct,
// PhaseEvaluate, PhaseCanceled, or "" for a nil or untagged error.
// Observability sinks use it to split failure tallies without
// unwrapping.
func Phase(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	if strings.HasPrefix(msg, PhaseConstruct+":") {
		return PhaseConstruct
	}
	if strings.HasPrefix(msg, PhaseEvaluate+":") {
		return PhaseEvaluate
	}
	if strings.HasPrefix(msg, PhaseCanceled+":") {
		return PhaseCanceled
	}
	return ""
}

// Outcome is the result of evaluating one cell. Cells fail
// independently; the caller's merge decides whether a failed cell sinks
// its point or the whole run.
type Outcome[T any] struct {
	Value T
	Err   error
}

// guard runs fn with panics converted to errors.
func guard[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("evaluation panicked: %v", r)
		}
	}()
	return fn()
}

// Clock provides the engine's notion of time for per-cell timing. It
// is injected (typically an obs.Clock) so the engine itself never reads
// the wall clock; a frozen clock yields zero durations and keeps the
// observed output byte-identical across runs and worker counts.
type Clock interface {
	Now() time.Time
}

// CellObserver receives every cell's outcome and measured duration. The
// engine delivers observations per cell, in grid order, on the caller's
// goroutine — never from worker goroutines — so an observer may feed
// metrics registries, span trees or progress counters without
// re-introducing scheduling into the observed output.
type CellObserver interface {
	ObserveCell(point, seed int, d time.Duration, err error)
}

// CachedCellObserver is the optional CellObserver extension for
// cache-aware sinks: ObserveCachedCell fires for every cell whose value
// was replayed from the grid's CellCache, immediately after that cell's
// ObserveCell, still in grid order.
type CachedCellObserver interface {
	CellObserver
	ObserveCachedCell(point, seed int)
}

// CellCache memoizes cell values across runs. The engine consults it
// before evaluating a cell and stores every freshly computed success;
// the cache must return values byte-identical to re-evaluation (it is
// keyed outside the engine on everything the cell depends on), so a
// warm grid merges exactly like a cold one. Implementations are called
// from worker goroutines and must be safe for concurrent use; a miss is
// (nil, false), and Put is best-effort (a cache that cannot persist
// simply forgets).
type CellCache interface {
	Get(point, seed int) (any, bool)
	Put(point, seed int, v any)
}

// Grid describes a points x seeds evaluation grid.
type Grid struct {
	// Points and Seeds span the grid; every (point, seed) coordinate is
	// one independent cell.
	Points, Seeds int
	// Workers bounds the evaluating pool; <= 1 runs serially.
	Workers int
	// Obs, if set, receives every cell's outcome plus its duration in
	// grid order (point varying slowest), just before the cell is
	// delivered — the observability sink. Durations are measured with
	// Clock around each cell evaluation; a nil Clock reports zero
	// durations.
	Obs CellObserver
	// Clock times cells for Obs. It is only consulted when Obs is set.
	Clock Clock
	// Cache, if set, memoizes cell values across runs: a hit replays the
	// stored value without evaluating (and without timing — a replayed
	// cell reports zero duration), a fresh success is stored back. The
	// cache owns its keying; values must round-trip bit-identically for
	// the warm grid to merge byte-equal to a cold one. If Obs implements
	// CachedCellObserver it additionally learns which cells were
	// replayed.
	Cache CellCache
	// ShardIndex and ShardCount restrict the run to one contiguous block
	// of the grid: shard j of k owns the global cells [j*n/k, (j+1)*n/k)
	// in grid order (point varying slowest), so the k shards form an
	// exact disjoint cover. Cells keep their global coordinates — and
	// therefore their pre-derived seeds — so under any partition of the
	// grid each cell computes the value an unsharded run would, and a
	// shared Cache replays it there. ShardCount <= 0 runs the whole
	// grid.
	ShardIndex, ShardCount int
}
