// Package obs is the deterministic observability subsystem: a
// lock-sharded metrics registry (counters, gauges, fixed-bucket
// histograms) with sorted text rendering, hierarchical spans driven by
// an injected Clock, and a run manifest written alongside reports. It
// is stdlib-only and deliberately free of wall-clock reads: every
// timestamp flows through a Clock handed in by the caller, so the
// hybridlint nondeterminism gate applies to obs itself and a
// FrozenClock makes metric dumps and span trees byte-reproducible
// across runs and worker counts.
//
// The split of responsibilities:
//
//   - counters and gauges are integer-valued and atomically updated, so
//     publishing from concurrently evaluated sweep cells cannot perturb
//     the totals (integer addition is commutative exactly);
//   - histograms accumulate a float sum and therefore must be fed from
//     deterministic call sites — the engine delivers cell observations
//     per cell, in grid order, on the caller's goroutine, which is why
//     histogram values are identical for every worker count;
//   - spans form a tree built serially (experiment phases) plus
//     grid-ordered recorded children (cells), so the rendered trace is
//     deterministic under a FrozenClock.
package obs

import (
	"sync"
)

// Runtime bundles one run's observability state: the clock every
// timestamp derives from, the metrics registry the run publishes into,
// and the root span of the trace. A nil *Runtime disables observability
// wherever one is accepted.
type Runtime struct {
	// Clock is the run's only source of time.
	Clock Clock
	// Metrics receives the run's counters, gauges and histograms.
	Metrics *Registry
	// Root is the root span of the run's trace.
	Root *Span

	mu      sync.Mutex
	current []*Span
	tallies []PhaseTally
}

// NewRuntime builds a runtime around the injected clock, publishing
// into the process-default registry. A nil clock freezes time at Epoch,
// which keeps a forgotten injection deterministic instead of silently
// reading the wall clock.
func NewRuntime(clock Clock) *Runtime {
	return NewRuntimeWith(clock, Default())
}

// NewRuntimeWith is NewRuntime with an explicit registry, for tests
// that must not share the process-default counters.
func NewRuntimeWith(clock Clock, reg *Registry) *Runtime {
	if clock == nil {
		clock = NewFrozenClock(Epoch)
	}
	return &Runtime{Clock: clock, Metrics: reg, Root: NewSpan(clock, "run")}
}

// Push opens a child span under the current innermost span (the root
// when none is open) and makes it current. Push/Pop pairs are how the
// experiment layer brackets its phases; they must be called from one
// goroutine at a time (experiment phases run serially by design).
func (rt *Runtime) Push(name string) *Span {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	parent := rt.Root
	if n := len(rt.current); n > 0 {
		parent = rt.current[n-1]
	}
	sp := parent.Child(name)
	rt.current = append(rt.current, sp)
	return sp
}

// Pop ends the current span and restores its parent as current. A Pop
// without a matching Push is a no-op.
func (rt *Runtime) Pop() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := len(rt.current)
	if n == 0 {
		return
	}
	rt.current[n-1].End()
	rt.current = rt.current[:n-1]
}

// AddTally records one phase's cell-outcome tally for the run manifest.
// Tallies are reported in insertion order, which is deterministic
// because phases execute serially.
func (rt *Runtime) AddTally(t PhaseTally) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.tallies = append(rt.tallies, t)
}

// Tallies returns a copy of the recorded phase tallies.
func (rt *Runtime) Tallies() []PhaseTally {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]PhaseTally(nil), rt.tallies...)
}
