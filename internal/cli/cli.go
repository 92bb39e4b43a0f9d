// Package cli holds the flag bindings shared by the repository's
// commands (capsim, figures): every experiment-running command
// exposes the same -out/-quick/-seeds/-workers knobs — plus the
// observability outputs -metrics-out/-trace-out/-frozen-clock — with
// the same defaults and help strings, bound in one place so they cannot
// drift.
package cli

import (
	"flag"
	"time"

	"hybridcap/internal/cellcache"
	"hybridcap/internal/experiments"
	"hybridcap/internal/obs"
)

// Common are the options every experiment-running command shares.
type Common struct {
	// Out is the output directory for CSV/TXT artifacts.
	Out string
	// Quick selects the smaller per-experiment sweep defaults.
	Quick bool
	// Seeds is the number of seeds per grid point (0 = default).
	Seeds int
	// Workers bounds the engine's worker pool (0 = all CPU cores).
	Workers int
	// MetricsOut, if set, dumps the run's metrics registry in Prometheus
	// text format to this path after the run.
	MetricsOut string
	// TraceOut, if set, writes the run's span tree as JSON to this path
	// after the run.
	TraceOut string
	// FrozenClock freezes every observability timestamp at a fixed
	// epoch, making -metrics-out and -trace-out byte-reproducible across
	// runs and worker counts.
	FrozenClock bool
	// CellCache is the persistent cell-result cache directory; empty
	// disables cell caching. Scenario-sweep cells replay across runs
	// with byte-identical results (see EXPERIMENTS.md "Incremental
	// recompute").
	CellCache string
}

// Bind registers the shared flags on fs and returns the destination
// struct; read it after fs.Parse.
func Bind(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.Out, "out", "out", "output directory for CSV/TXT artifacts")
	fs.BoolVar(&c.Quick, "quick", false, "smaller sweeps for a fast smoke run")
	fs.IntVar(&c.Seeds, "seeds", 0, "seeds per data point (0 = default)")
	fs.IntVar(&c.Workers, "workers", 0, "parallel sweep workers (0 = all CPU cores); results are identical for every worker count")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write the run's metrics registry (Prometheus text format) to this file")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write the run's span tree (JSON) to this file")
	fs.BoolVar(&c.FrozenClock, "frozen-clock", false, "freeze observability timestamps at a fixed epoch (byte-reproducible -metrics-out/-trace-out)")
	fs.StringVar(&c.CellCache, "cell-cache", "", "persistent cell-result cache directory: scenario sweep cells replay across runs, byte-identically (empty = off)")
	return c
}

// Options converts the parsed flags into experiment options.
func (c *Common) Options() experiments.Options {
	return experiments.Options{Quick: c.Quick, Seeds: c.Seeds, Workers: c.Workers}
}

// CellStore opens the -cell-cache store, nil when the flag is unset.
func (c *Common) CellStore() (*cellcache.Store, error) {
	if c.CellCache == "" {
		return nil, nil
	}
	return cellcache.NewStore(c.CellCache)
}

// Clock returns the observability clock the flags select: frozen at
// obs.Epoch under -frozen-clock, the wall clock otherwise. Commands are
// the only layer allowed to construct a wall clock; everything below
// receives it by injection.
func (c *Common) Clock() obs.Clock {
	if c.FrozenClock {
		return obs.NewFrozenClock(obs.Epoch)
	}
	return obs.ClockFunc(time.Now)
}

// Runtime builds the run's observability runtime: the selected clock
// publishing into the process-default registry, so engine, cache and
// fault metrics all land in one -metrics-out dump.
func (c *Common) Runtime() *obs.Runtime {
	return obs.NewRuntime(c.Clock())
}

// WriteObs finishes the run's root span and writes the -metrics-out and
// -trace-out artifacts that were requested. A nil runtime or a run with
// neither flag set is a no-op.
func (c *Common) WriteObs(rt *obs.Runtime) error {
	if rt == nil {
		return nil
	}
	rt.Root.End()
	if c.MetricsOut != "" {
		if err := rt.WriteMetricsFile(c.MetricsOut); err != nil {
			return err
		}
	}
	if c.TraceOut != "" {
		if err := rt.WriteTraceFile(c.TraceOut); err != nil {
			return err
		}
	}
	return nil
}
