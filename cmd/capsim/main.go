// Command capsim evaluates the paper's hybrid-network model at one
// parameter point or over a declarative scenario, and serves scenarios
// as a daemon. Every evaluation runs through the one scenario path,
// experiments.RunScenario.
//
// Point mode prints the theory for the (alpha, K, phi, M, R) point —
// instance sizes, mobility regime with both indicators, the capacity
// and optimal-RT orders, Table I — and then runs the point as a
// one-size scenario whose lambda is the best of the selected schemes
// (-scheme NAME evaluates one). -seeds k averages k instances:
//
//	capsim -n 4096 -alpha 0.3 -K 0.8 -phi 1 -scheme schemeB -placement grid
//
// Fault injection: -bs-outage / -edge-outage / -erasure install a
// deterministic fault plan (seeded by -fault-seed) in every instance.
// Experiment E14 gives the capacity-vs-outage curve; a shell loop over
// -bs-outage gives it at any other point.
//
// Scenario mode: -scenario runs a declarative scenario JSON file (see
// EXPERIMENTS.md "Scenarios") through the grid engine — new regimes
// without recompilation:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -quick
//
// Incremental recompute: -cell-cache DIR persists every evaluated grid
// cell; re-running the same regime (or an edited scenario sharing cells
// with it) replays the stored values byte-identically and only computes
// the cells that changed. The same flag under -serve shares the cell
// cache across daemon submissions:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -cell-cache out/cells
//
// Sharded sweeps: -shard i/k runs one block of a scenario's grid (delay
// scenarios included) and stores its cells in the -cell-cache it
// requires. The unsharded run of
// the same scenario over the shards' cache is the merge: it replays the
// stored cells and computes only the rest.
//
// Observability: both modes write <id>.{txt,csv,manifest.json} under
// -out. -metrics-out dumps the run's metrics registry (Prometheus text
// format) and -trace-out its span tree (JSON); -frozen-clock pins every
// timestamp to a fixed epoch so both files are byte-identical across
// runs and worker counts:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -quick \
//	    -frozen-clock -metrics-out out/metrics.txt -trace-out out/trace.json
//
// Daemon mode: -serve ADDR turns capsim into the long-running scenario
// service (see README "Scenario service"): POST a scenario JSON to
// /runs and fetch status/report/manifest by run id, with a bounded
// admission queue, content-addressed result cache under -cache-dir,
// and graceful drain on SIGINT/SIGTERM. The daemon also serves the live
// registry (/metrics, /debug/vars) and /debug/pprof:
//
//	capsim -serve :8080 -cache-dir out/cache -quick
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hybridcap/internal/capacity"
	"hybridcap/internal/cli"
	"hybridcap/internal/experiments"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scenario"
	"hybridcap/internal/server"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: the daemon drains
	// gracefully, and an in-flight sweep stops scheduling grid cells
	// promptly instead of running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "capsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		listSchemes = flag.Bool("list-schemes", false, "print the routing scheme registry with descriptions and exit")
		scenarioArg = flag.String("scenario", "", "run a declarative scenario JSON file through the grid engine (uses -out/-quick/-seeds/-workers)")
		shardArg    = flag.String("shard", "", "with -scenario and -cell-cache: run only shard i of k (\"i/k\", e.g. 0/3) of the sweep grid into the cell cache, delay scenarios included; the unsharded run over that cache is the merge")
		daemonAddr  = flag.String("serve", "", "run the scenario service on this address (POST /runs; see README \"Scenario service\")")
		cacheDir    = flag.String("cache-dir", "out/cache", "content-addressed result cache directory (with -serve)")
		maxQueue    = flag.Int("max-queue", 16, "admission queue bound; a full queue sheds with 429 (with -serve)")
		maxConc     = flag.Int("max-concurrent", 2, "concurrent scenario runs (with -serve)")
		runTimeout  = flag.Duration("run-timeout", 0, "per-run deadline, 0 = none (with -serve)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline (with -serve)")
	)
	point := bindPoint(flag.CommandLine)
	common := cli.Bind(flag.CommandLine)
	flag.Parse()

	switch {
	case *listSchemes:
		printSchemes()
		return nil
	case *daemonAddr != "":
		return runServe(ctx, *daemonAddr, common, server.Config{
			CacheDir:      *cacheDir,
			CellCacheDir:  common.CellCache,
			MaxQueue:      *maxQueue,
			MaxConcurrent: *maxConc,
			RunTimeout:    *runTimeout,
			DrainTimeout:  *drainWait,
		})
	case *shardArg != "" && *scenarioArg == "":
		return fmt.Errorf("-shard requires -scenario")
	}
	var report string
	var err error
	if *scenarioArg != "" {
		report, err = runScenarioFile(ctx, *scenarioArg, *shardArg, common)
	} else {
		report, err = runPoint(ctx, point, common)
	}
	fmt.Print(report)
	return err
}

// pointFlags are point mode's flags: one parameter point of the paper's
// model, the schemes scoring it, the BS placement and the fault plan.
type pointFlags struct {
	p          scaling.Params
	scheme     string
	placement  string
	bsOutage   float64
	edgeOutage float64
	erasure    float64
	faultSeed  uint64
}

// bindPoint registers point mode's flags on fs; read the result after
// fs.Parse.
func bindPoint(fs *flag.FlagSet) *pointFlags {
	pf := &pointFlags{}
	fs.IntVar(&pf.p.N, "n", 4096, "number of mobile stations")
	fs.Float64Var(&pf.p.Alpha, "alpha", 0.3, "network extension exponent: f(n) = n^alpha")
	fs.Float64Var(&pf.p.K, "K", 0.6, "BS count exponent: k = n^K (negative = no BSs)")
	fs.Float64Var(&pf.p.Phi, "phi", 1, "backbone exponent: k*c(n) = n^phi")
	fs.Float64Var(&pf.p.M, "M", 1, "cluster count exponent: m = n^M (1 = uniform)")
	fs.Float64Var(&pf.p.R, "R", 0, "cluster radius exponent: r = n^-R")
	fs.StringVar(&pf.scheme, "scheme", "best", "a routing scheme name (see -list-schemes) or best")
	fs.StringVar(&pf.placement, "placement", "matched", "matched | uniform | grid")
	fs.Float64Var(&pf.bsOutage, "bs-outage", 0, "fraction of base stations failed (nested outage sets)")
	fs.Float64Var(&pf.edgeOutage, "edge-outage", 0, "fraction of backbone edges failed")
	fs.Float64Var(&pf.erasure, "erasure", 0, "per-slot wireless erasure probability (packet sims)")
	fs.Uint64Var(&pf.faultSeed, "fault-seed", 1, "seed of the deterministic fault plan")
	return pf
}

// scenario renders the point as a validated one-size, one-seed
// scenario, so a bad flag fails before any cell runs.
func (pf *pointFlags) scenario() (*scenario.Scenario, error) {
	p := pf.p
	sc := &scenario.Scenario{
		Name:        "point", // the report ID, and the salt of the cell seeds
		Description: "one parameter point",
		Base:        scenario.Exponents{Alpha: p.Alpha, K: p.K, Phi: p.Phi, M: p.M, R: p.R},
		Sizes:       []int{p.N},
		Seeds:       1,
		Schemes:     schemeNames(pf.scheme, p),
		Placement:   pf.placement,
	}
	f := scenario.FaultSpec{Seed: pf.faultSeed, BSOutage: pf.bsOutage, EdgeOutage: pf.edgeOutage, WirelessErasure: pf.erasure}
	if f != (scenario.FaultSpec{Seed: f.Seed}) {
		sc.Faults = &f
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// schemeNames resolves -scheme to a scenario scheme set: "best" is
// every scheme applicable to the point, anything else names one scheme
// (scenario validation rejects an unknown name).
func schemeNames(name string, p scaling.Params) []string {
	if name != "best" {
		return []string{name}
	}
	names := []string{routing.NameSchemeA, routing.NameTwoHop}
	if p.HasInfrastructure() {
		names = append(names, routing.NameSchemeB, routing.NameSchemeC)
	}
	return names
}

// runPoint runs the point as a scenario and returns its report under
// the theory header; the header is returned even when the run fails.
func runPoint(ctx context.Context, pf *pointFlags, c *cli.Common) (string, error) {
	sc, err := pf.scenario()
	if err != nil {
		return "", err
	}
	report, err := runScenario(ctx, sc, c)
	return header(pf.p) + report, err
}

// header renders what the capacity theory says about p: instance
// sizes, the mobility regime with both indicators, the capacity and
// optimal-RT orders, Table I, and the capacity order evaluated at n.
func header(p scaling.Params) string {
	var b strings.Builder
	regime, ind := capacity.Classify(p)
	capOrder := capacity.PerNodeCapacity(p)
	fmt.Fprintf(&b, "params:    %v\n", p)
	fmt.Fprintf(&b, "instance:  k=%d m=%d f=%.3g r=%.3g c=%.4g\n",
		p.NumBS(), p.NumClusters(), p.F(), p.ClusterRadius(), p.BandwidthC())
	fmt.Fprintf(&b, "regime:    %v (f*sqrt(gamma)=%.3g, f*sqrt(gammaTilde)=%.3g)\n",
		regime, ind.MobilityIndex, ind.SubnetIndex)
	fmt.Fprintf(&b, "theory:    capacity %v, optimal RT %v, %v\n",
		capOrder, capacity.OptimalRT(p), capacity.Dominance(p))
	fmt.Fprintf(&b, "           capacity order evaluates to %.6g at n=%d\n\n", capOrder.Eval(float64(p.N)), p.N)
	b.WriteString(capacity.FormatTableI(capacity.TableI(p)))
	b.WriteByte('\n')
	return b.String()
}

// printSchemes lists the routing registry, one scheme per line, the
// source of truth behind the -scheme flag and scenario scheme sets.
func printSchemes() {
	for _, name := range routing.Names() {
		fmt.Printf("%-15s %s\n", name, routing.Description(name))
	}
}

// runServe runs the scenario service until the signal context cancels,
// then drains gracefully. The daemon executes runs with the shared
// -quick/-seeds/-workers options, so a served run is byte-identical to
// the same scenario under `capsim -scenario`; -frozen-clock freezes the
// bookkeeping stamps for deterministic smoke tests.
func runServe(ctx context.Context, addr string, c *cli.Common, cfg server.Config) error {
	cfg.Workers = c.Workers
	cfg.Seeds = c.Seeds
	cfg.Quick = c.Quick
	cfg.Clock = c.Clock()
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("capsim: scenario service on %s (cache %s, queue %d, concurrency %d)\n",
		addr, srv.Store().Dir(), cfg.MaxQueue, cfg.MaxConcurrent)
	if err := srv.ListenAndServe(ctx, addr); err != nil {
		return err
	}
	fmt.Println("capsim: scenario service drained cleanly")
	return nil
}

// runScenarioFile loads a declarative scenario file and runs it. A
// -shard spec overrides the file's shard field and restricts the run
// to one block of the sweep grid.
func runScenarioFile(ctx context.Context, path, shardSpec string, c *cli.Common) (string, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return "", err
	}
	if shardSpec != "" {
		sp, err := parseShard(shardSpec)
		if err != nil {
			return "", err
		}
		sc.Shard = sp
		if err := sc.Validate(); err != nil {
			return "", err
		}
	}
	return runScenario(ctx, sc, c)
}

// runScenario executes sc through the grid engine under the
// observability runtime the shared flags select, writes the report
// artifacts (including the run manifest) plus any requested
// -metrics-out/-trace-out dumps, and returns the report to print. The
// signal context cancels an in-flight sweep promptly.
func runScenario(ctx context.Context, sc *scenario.Scenario, c *cli.Common) (string, error) {
	rt := c.Runtime()
	o := c.Options()
	o.Obs = rt
	var err error
	o.CellCache, err = c.CellStore()
	if err != nil {
		return "", err
	}
	res, err := experiments.RunScenario(ctx, sc, o)
	if err != nil {
		return "", err
	}
	report := res.Text()
	if c.Out != "" {
		if err := res.WriteFiles(c.Out); err != nil {
			return report, err
		}
		report += fmt.Sprintf("\nwrote %s/%s.{txt,csv,manifest.json}\n", c.Out, res.ID)
	}
	return report, c.WriteObs(rt)
}

// parseShard parses a -shard spec of the form "i/k" (shard index i of k
// total shards). Range validation happens in scenario.Validate, where
// the grid size is known.
func parseShard(spec string) (*scenario.ShardSpec, error) {
	is, ks, ok := strings.Cut(spec, "/")
	if !ok {
		return nil, fmt.Errorf("-shard %q: want i/k, e.g. 0/3", spec)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return nil, fmt.Errorf("-shard %q: bad index: %w", spec, err)
	}
	k, err := strconv.Atoi(ks)
	if err != nil {
		return nil, fmt.Errorf("-shard %q: bad count: %w", spec, err)
	}
	return &scenario.ShardSpec{Index: i, Count: k}, nil
}
