// Command capsim evaluates one hybrid-network instance: it builds the
// network for the given scaling parameters, classifies its mobility
// regime, evaluates the selected communication scheme and prints the
// sustainable per-node rate next to the theoretical order.
//
// Example:
//
//	capsim -n 4096 -alpha 0.3 -K 0.8 -phi 1 -scheme schemeB -placement grid
//
// Fault injection: -bs-outage / -edge-outage / -erasure install a
// deterministic fault plan (seeded by -fault-seed) before evaluation,
// and -outage-curve sweeps the BS outage fraction from 0 to 1 printing
// the capacity-vs-outage curve for every selected scheme.
//
// Scenario mode: -scenario runs a declarative scenario JSON file (see
// EXPERIMENTS.md "Scenarios") through the grid engine instead of a
// single instance — new regimes without recompilation:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -quick
//
// Incremental recompute: -cell-cache DIR persists every evaluated grid
// cell of a scenario sweep; re-running the same regime (or an edited
// scenario sharing cells with it) replays the stored values
// byte-identically and only computes the cells that changed. The same
// flag under -serve shares the cell cache across daemon submissions:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -cell-cache out/cells
//
// Observability: -metrics-out dumps the run's metrics registry
// (Prometheus text format) and -trace-out its span tree (JSON);
// -frozen-clock pins every timestamp to a fixed epoch so both files are
// byte-identical across runs and worker counts. -serve-metrics ADDR
// serves the live registry (/metrics, /debug/vars) and -pprof ADDR the
// standard profiler while a long sweep runs:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -quick \
//	    -frozen-clock -metrics-out out/metrics.txt -trace-out out/trace.json
//
// Daemon mode: -serve ADDR turns capsim into the long-running scenario
// service (see README "Scenario service"): POST a scenario JSON to
// /runs and fetch status/report/manifest by run id, with a bounded
// admission queue, content-addressed result cache under -cache-dir,
// and graceful drain on SIGINT/SIGTERM:
//
//	capsim -serve :8080 -cache-dir out/cache -quick
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hybridcap/internal/capacity"
	"hybridcap/internal/cli"
	"hybridcap/internal/experiments"
	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/obs"
	"hybridcap/internal/rng"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scenario"
	"hybridcap/internal/server"
	"hybridcap/internal/traffic"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: the daemon drains
	// gracefully, and an in-flight scenario sweep stops scheduling grid
	// cells promptly instead of running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "capsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		n           = flag.Int("n", 4096, "number of mobile stations")
		alpha       = flag.Float64("alpha", 0.3, "network extension exponent: f(n) = n^alpha")
		kExp        = flag.Float64("K", 0.6, "BS count exponent: k = n^K (negative = no BSs)")
		phi         = flag.Float64("phi", 1, "backbone exponent: k*c(n) = n^phi")
		mExp        = flag.Float64("M", 1, "cluster count exponent: m = n^M (1 = uniform)")
		rExp        = flag.Float64("R", 0, "cluster radius exponent: r = n^-R")
		scheme      = flag.String("scheme", "best", "a routing scheme name (see -list-schemes) or best")
		listSchemes = flag.Bool("list-schemes", false, "print the routing scheme registry with descriptions and exit")
		placement   = flag.String("placement", "matched", "matched | uniform | grid")
		seed        = flag.Uint64("seed", 1, "random seed")
		bsOutage    = flag.Float64("bs-outage", 0, "fraction of base stations failed (nested outage sets)")
		edgeOutage  = flag.Float64("edge-outage", 0, "fraction of backbone edges failed")
		erasure     = flag.Float64("erasure", 0, "per-slot wireless erasure probability (packet sims)")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed of the deterministic fault plan")
		outageCurve = flag.Bool("outage-curve", false, "sweep the BS outage fraction 0..1 and print the capacity curve")
		scenarioArg = flag.String("scenario", "", "run a declarative scenario JSON file through the grid engine (uses -out/-quick/-seeds/-workers)")
		shardArg    = flag.String("shard", "", "with -scenario: run only shard i of k (\"i/k\", e.g. 0/3) of the sweep grid; merge the shard outputs with capmerge")
		serveAddr   = flag.String("serve-metrics", "", "serve the live metrics registry on this address (/metrics Prometheus text, /debug/vars expvar) while running")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address while running")
		daemonAddr  = flag.String("serve", "", "run the scenario service on this address (POST /runs; see README \"Scenario service\")")
		cacheDir    = flag.String("cache-dir", "out/cache", "content-addressed result cache directory (with -serve)")
		maxQueue    = flag.Int("max-queue", 16, "admission queue bound; a full queue sheds with 429 (with -serve)")
		maxConc     = flag.Int("max-concurrent", 2, "concurrent scenario runs (with -serve)")
		runTimeout  = flag.Duration("run-timeout", 0, "per-run deadline, 0 = none (with -serve)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline (with -serve)")
	)
	common := cli.Bind(flag.CommandLine)
	flag.Parse()

	if *listSchemes {
		printSchemes()
		return nil
	}
	serveDebug(*serveAddr, *pprofAddr)
	if *daemonAddr != "" {
		return runServe(ctx, *daemonAddr, common, server.Config{
			CacheDir:      *cacheDir,
			CellCacheDir:  common.CellCache,
			MaxQueue:      *maxQueue,
			MaxConcurrent: *maxConc,
			RunTimeout:    *runTimeout,
			DrainTimeout:  *drainWait,
		})
	}
	if *scenarioArg != "" {
		return runScenarioFile(ctx, *scenarioArg, *shardArg, common)
	}
	if *shardArg != "" {
		return fmt.Errorf("-shard requires -scenario")
	}

	p := scaling.Params{N: *n, Alpha: *alpha, K: *kExp, Phi: *phi, M: *mExp, R: *rExp}
	if err := p.Validate(); err != nil {
		return err
	}
	bsPlacement, err := network.ParsePlacement(*placement)
	if err != nil {
		return err
	}
	faultCfg := faults.Config{
		Seed:               *faultSeed,
		BSOutageFraction:   *bsOutage,
		EdgeOutageFraction: *edgeOutage,
		WirelessErasure:    *erasure,
	}
	if err := faultCfg.Validate(); err != nil {
		return err
	}

	build := func(fc faults.Config) (*network.Network, error) {
		cfg := network.Config{Params: p, Seed: *seed, BSPlacement: bsPlacement}
		if fc.Active() {
			plan, err := faults.New(fc)
			if err != nil {
				return nil, err
			}
			cfg.Faults = plan
		}
		return network.New(cfg)
	}
	nw, err := build(faultCfg)
	if err != nil {
		return err
	}
	tr, err := traffic.NewPermutation(p.N, rng.New(*seed).Derive("traffic").Rand())
	if err != nil {
		return err
	}

	regime, ind := capacity.Classify(p)
	fmt.Printf("params:    %v\n", p)
	fmt.Printf("instance:  k=%d m=%d f=%.3g r=%.3g c=%.4g\n",
		nw.NumBS(), p.NumClusters(), p.F(), p.ClusterRadius(), p.BandwidthC())
	if faultCfg.Active() {
		fmt.Printf("faults:    bs-outage=%.2f edge-outage=%.2f erasure=%.2f seed=%d -> %d/%d BSs live\n",
			faultCfg.BSOutageFraction, faultCfg.EdgeOutageFraction, faultCfg.WirelessErasure,
			faultCfg.Seed, nw.NumLiveBS(), nw.NumBS())
	}
	fmt.Printf("regime:    %v (f*sqrt(gamma)=%.3g, f*sqrt(gammaTilde)=%.3g)\n",
		regime, ind.MobilityIndex, ind.SubnetIndex)
	fmt.Printf("theory:    capacity %v, optimal RT %v, %v\n",
		capacity.PerNodeCapacity(p), capacity.OptimalRT(p), capacity.Dominance(p))
	fmt.Println()
	fmt.Print(capacity.FormatTableI(capacity.TableI(p)))
	fmt.Println()

	schemes, err := selectSchemes(*scheme, p)
	if err != nil {
		return err
	}
	best := 0.0
	for _, s := range schemes {
		ev, err := s.Evaluate(nw, tr)
		if err != nil {
			fmt.Printf("%-14s error: %v\n", s.Name(), err)
			continue
		}
		fmt.Printf("%-14s lambda=%.6g bottleneck=%s failures=%d degraded=%d dropped=%d\n",
			s.Name(), ev.Lambda, ev.Bottleneck, ev.Failures, ev.Degraded, ev.Dropped)
		if ev.Lambda > best {
			best = ev.Lambda
		}
	}
	fmt.Printf("best measured lambda: %.6g (theory order evaluates to %.6g at n=%d)\n",
		best, capacity.PerNodeCapacity(p).Eval(float64(p.N)), p.N)

	if *outageCurve {
		fmt.Println()
		if err := printOutageCurve(build, faultCfg, tr, schemes); err != nil {
			return err
		}
	}
	return nil
}

// printOutageCurve sweeps the BS outage fraction with the other fault
// knobs held fixed, printing one lambda column per scheme.
func printOutageCurve(build func(faults.Config) (*network.Network, error), faultCfg faults.Config, tr *traffic.Pattern, schemes []routing.Scheme) error {
	header := []string{"bs-outage"}
	for _, s := range schemes {
		header = append(header, s.Name())
	}
	fmt.Println("capacity vs BS outage fraction:")
	fmt.Println(strings.Join(header, "\t"))
	for _, q := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1} {
		fc := faultCfg
		fc.BSOutageFraction = q
		nw, err := build(fc)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%.2f", q)}
		for _, s := range schemes {
			ev, err := s.Evaluate(nw, tr)
			if err != nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.6g", ev.Lambda))
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	return nil
}

// printSchemes lists the routing registry, one scheme per line, the
// source of truth behind the -scheme flag and scenario scheme sets.
func printSchemes() {
	for _, name := range routing.Names() {
		fmt.Printf("%-15s %s\n", name, routing.Description(name))
	}
}

// selectSchemes resolves -scheme against the routing registry; "best"
// evaluates every scheme applicable to the parameter point.
func selectSchemes(name string, p scaling.Params) ([]routing.Scheme, error) {
	if name == "best" {
		names := []string{routing.NameSchemeA, routing.NameTwoHop}
		if p.HasInfrastructure() {
			names = append(names, routing.NameSchemeB, routing.NameSchemeC)
		}
		list := make([]routing.Scheme, 0, len(names))
		for _, n := range names {
			s, err := routing.ByName(n, p)
			if err != nil {
				return nil, err
			}
			list = append(list, s)
		}
		return list, nil
	}
	s, err := routing.ByName(name, p)
	if err != nil {
		return nil, err
	}
	return []routing.Scheme{s}, nil
}

// serveDebug starts the optional debug endpoints: the live metrics
// registry (Prometheus text plus the expvar bridge) and net/http/pprof.
// The user asked for these listeners explicitly, so a listener that
// fails to come up (or dies later) is reported and fatal — silently
// running without the requested endpoint would hide exactly the
// failures it exists to expose.
func serveDebug(metricsAddr, pprofAddr string) {
	fatalServe := func(name, addr string, h http.Handler) {
		go func() {
			// http.ListenAndServe only ever returns a non-nil error.
			err := http.ListenAndServe(addr, h)
			fmt.Fprintf(os.Stderr, "capsim: %s listener on %s failed: %v\n", name, addr, err)
			os.Exit(1)
		}()
	}
	if metricsAddr != "" {
		obs.PublishExpvar("hybridcap", obs.Default())
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Default().Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		fatalServe("-serve-metrics", metricsAddr, mux)
	}
	if pprofAddr != "" {
		// The pprof import registered its handlers on the default mux.
		fatalServe("-pprof", pprofAddr, nil)
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

// runScenarioFile loads a declarative scenario file, executes it
// through the grid engine under the observability runtime selected by
// the shared flags, and writes the report artifacts (including the run
// manifest) plus any requested -metrics-out/-trace-out dumps. The
// signal context cancels an in-flight sweep promptly. A -shard spec
// overrides the file's shard field and restricts the run to one block
// of the sweep grid.
func runScenarioFile(ctx context.Context, path, shardSpec string, c *cli.Common) error {
	sc, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if shardSpec != "" {
		sp, err := parseShard(shardSpec)
		if err != nil {
			return err
		}
		sc.Shard = sp
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	rt := c.Runtime()
	o := c.Options()
	o.Obs = rt
	o.CellCache, err = c.CellStore()
	if err != nil {
		return err
	}
	res, err := experiments.RunScenario(ctx, sc, o)
	if err != nil {
		return err
	}
	fmt.Print(res.Text())
	if c.Out != "" {
		if err := res.WriteFiles(c.Out); err != nil {
			return err
		}
		if res.Cells != nil {
			fmt.Printf("\nwrote %s/%s.{txt,csv,manifest.json,cells.json}\n", c.Out, res.ID)
		} else {
			fmt.Printf("\nwrote %s/%s.{txt,csv,manifest.json}\n", c.Out, res.ID)
		}
	}
	return c.WriteObs(rt)
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
