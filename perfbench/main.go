// Command perfbench is hybridcap's benchmark: one process that runs one
// workload for a fixed time, checks the program's outputs, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as the last line of standard output.
//
// Every layer is measured from outside, by timing calls into its public
// functions; nothing inside the program is instrumented. Run it from the
// root of a checkout through perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// Workloads: table1, delay-sweep, packet-sim, serve-mix (see
// workloadNames and README.md).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"hybridcap/internal/mobility"
)

// processStart approximates the process start for setup_s: package
// initialization runs before main, a few milliseconds after exec.
var processStart = time.Now()

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workers is the sweep pool size; clients the serve-mix client
	// count; serverConcurrent x serverWorkers the daemon's thread use.
	workers, clients                int
	serverConcurrent, serverWorkers int
	// setupRuns is how many cold set-ups setup_s is the median of: this
	// process plus setupRuns-1 probe processes.
	setupRuns int
	// out holds the benchmark's scratch files and trace output.
	out string
	// tiny shrinks every workload to test size.
	tiny bool
	// probe makes the process set up, print its set-up time and exit.
	probe bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"table1", "delay-sweep", "packet-sim", "serve-mix"}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.probe {
		_, d, err := setUp(context.Background(), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
			os.Exit(1)
		}
		fmt.Printf("setup_s %s\n", strconv.FormatFloat(d, 'g', -1, 64))
		return
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// parseFlags reads the command line and applies the load guard.
func parseFlags(args []string) (config, error) {
	nproc := runtime.NumCPU()
	cfg := config{setupRuns: 3}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measuring time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.IntVar(&cfg.workers, "workers", nproc, "sweep workers (at most nproc)")
	fs.IntVar(&cfg.clients, "clients", nproc, "serve-mix clients (at most nproc)")
	fs.IntVar(&cfg.serverConcurrent, "server-concurrent", 1, "serve-mix concurrent runs")
	fs.IntVar(&cfg.serverWorkers, "server-workers", 1, "serve-mix engine workers per run")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "scratch and trace directory")
	fs.BoolVar(&cfg.probe, "probe", false, "set up once, print setup_s and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, cfg.validate(nproc)
}

// validate refuses unknown workloads and any configuration whose
// threads or clients exceed nproc.
func (c config) validate(nproc int) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == c.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames, ", "))
	}
	if c.seconds <= 0 || math.IsInf(c.seconds, 0) || math.IsNaN(c.seconds) {
		return fmt.Errorf("-seconds must be positive, got %v", c.seconds)
	}
	if c.setupRuns < 1 {
		return fmt.Errorf("-setup-runs must be at least 1, got %d", c.setupRuns)
	}
	for _, l := range []struct {
		name string
		v    int
	}{
		{"workers", c.workers},
		{"clients", c.clients},
		{"server-concurrent", c.serverConcurrent},
		{"server-workers", c.serverWorkers},
		{"server-concurrent x server-workers", c.serverConcurrent * c.serverWorkers},
	} {
		if l.v < 1 || l.v > nproc {
			return fmt.Errorf("load guard: %s = %d must lie in [1, nproc=%d]", l.name, l.v, nproc)
		}
	}
	return nil
}

// workload is one benchmark workload. pass runs the workload's fixed
// work once; a non-nil recorder asks for a traced pass.
type workload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context, rec *recorder) (passStats, error)
	// finish runs the checks made outside the timed loop and adds the
	// workload's own per-layer metrics from the traced passes.
	finish(ctx context.Context, rep *report, traced []*passRecord)
}

// passStats is what one pass reports to the measuring loop.
type passStats struct {
	wall     time.Duration
	ops      int
	failed   int
	lat      []time.Duration
	problems []string
}

// report accumulates a run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	layer             map[string]float64
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "table1":
		return newTable1(cfg)
	case "delay-sweep":
		return newDelaySweep(cfg)
	case "packet-sim":
		return newPacketSim(cfg), nil
	case "serve-mix":
		return newServeMix(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// warmKernels builds the process-wide mobility kernel caches every
// workload's networks share, so no timed pass pays for them.
func warmKernels() error {
	k := mobility.DefaultKernel()
	if _, err := mobility.CachedSampler(k); err != nil {
		return err
	}
	_, err := mobility.CachedEtaTable(k)
	return err
}

// setUp prepares a workload and returns it with the seconds from
// process start to the end of its set-up.
func setUp(ctx context.Context, cfg config) (workload, float64, error) {
	if err := warmKernels(); err != nil {
		return nil, 0, fmt.Errorf("warm kernel caches: %w", err)
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := w.setup(ctx); err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	return w, time.Since(processStart).Seconds(), nil
}

// probeSetups runs n cold set-ups in child processes, one at a time.
func probeSetups(ctx context.Context, cfg config, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		args := []string{"-probe", "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-workers", strconv.Itoa(cfg.workers), "-clients", strconv.Itoa(cfg.clients),
			"-server-concurrent", strconv.Itoa(cfg.serverConcurrent),
			"-server-workers", strconv.Itoa(cfg.serverWorkers), "-out", cfg.out}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		fields := strings.Fields(string(b))
		if len(fields) != 2 || fields[0] != "setup_s" {
			return nil, fmt.Errorf("setup probe: unexpected output %q", b)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// run sets up the workload, measures it for cfg.seconds and returns the
// result line; human-readable lines go to stdout as it runs.
func run(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	w, ownSetup, err := setUp(ctx, cfg)
	if err != nil {
		return nil, err
	}

	rep := &report{layer: map[string]float64{}}
	m, err := measure(ctx, cfg, w, rep)
	if err != nil {
		return nil, err
	}
	setups := []float64{ownSetup}
	if cfg.setupRuns > 1 {
		more, err := probeSetups(ctx, cfg, cfg.setupRuns-1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
	}
	w.finish(ctx, rep, m.traced)

	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	catalogue := endToEnd
	var values map[string]float64
	if cfg.trace {
		catalogue = perLayer
		values = m.layerValues(cfg, rep)
	} else {
		values = m.endToEndValues(setups)
	}
	for _, mt := range catalogue {
		v := values[mt.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s is not finite (%v)", mt.name, v)
			v = 0
		}
		res.Metrics[mt.name] = metricValue{Value: v, Unit: mt.unit}
	}
	if res.Attempted < 1 {
		rep.problem("no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0 && len(rep.problems) == 0

	prov := provenance(cfg, m, len(setups))
	bw := bufio.NewWriter(stdout)
	pj, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(bw, "provenance %s\n", pj)
	seen := map[string]int{}
	for _, p := range rep.problems {
		if seen[p]++; seen[p] == 1 {
			fmt.Fprintf(bw, "problem %s\n", p)
		}
	}
	fmt.Fprintf(bw, "%-32s %.6g %s\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	for _, mt := range catalogue {
		line := fmt.Sprintf("%-32s %-12.6g %s", mt.name, res.Metrics[mt.name].Value, mt.unit)
		if mt.moves != "" {
			line = fmt.Sprintf("%-54s moves %s", line, mt.moves)
		}
		fmt.Fprintln(bw, line)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := writeTrace(cfg, prov, m.traced); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measurement is the timed loop's raw record.
type measurement struct {
	untraced, traced []*passRecord
	cacheMisses      uint64
}

// passRecord is one pass with the runtime counters around it.
type passRecord struct {
	passStats
	mallocs uint64
	gc      uint32
	rssMiB  float64
	rec     *recorder
}

// measure runs passes until cfg.seconds have elapsed: untraced passes
// only, or untraced and traced passes alternately under -trace 1. It
// stops once the next pass would end more than half a pass past the
// budget, after at least one pass of each kind.
func measure(ctx context.Context, cfg config, w workload, rep *report) (*measurement, error) {
	m := &measurement{}
	before := mobility.ReadCacheStats()
	start := time.Now()
	for i := 0; ; i++ {
		var rec *recorder
		if cfg.trace && i%2 == 1 {
			rec = newRecorder()
		}
		// Start every pass from a collected heap returned to the OS and
		// a reset peak-RSS counter, so no pass pays for the garbage of the
		// one before and each pass's memory peak is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ps, err := w.pass(ctx, rec)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		pr := &passRecord{passStats: ps, mallocs: ms1.Mallocs - ms0.Mallocs, gc: ms1.NumGC - ms0.NumGC, rssMiB: peakRSSMiB(), rec: rec}
		if rec != nil {
			m.traced = append(m.traced, pr)
		} else {
			m.untraced = append(m.untraced, pr)
		}
		rep.attempted += ps.ops
		rep.failed += ps.failed
		rep.problems = append(rep.problems, ps.problems...)
		enough := len(m.untraced) > 0 && (!cfg.trace || len(m.traced) > 0)
		elapsed := time.Since(start).Seconds()
		if enough && elapsed+ps.wall.Seconds()/2 > cfg.seconds {
			break
		}
	}
	m.cacheMisses = mobility.ReadCacheStats().Misses - before.Misses
	if m.cacheMisses > 0 {
		rep.problem("mobility kernel caches missed %d times inside the timed region", m.cacheMisses)
	}
	return m, nil
}

func (m *measurement) endToEndValues(setups []float64) map[string]float64 {
	var walls, rates, allocs, rss []float64
	var lat []float64
	for _, p := range m.untraced {
		walls = append(walls, p.wall.Seconds())
		rss = append(rss, p.rssMiB)
		if p.ops > 0 && p.wall > 0 {
			rates = append(rates, float64(p.ops)/p.wall.Seconds())
			allocs = append(allocs, float64(p.mallocs)/float64(p.ops))
		}
		for _, d := range p.lat {
			lat = append(lat, d.Seconds()*1e3)
		}
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"wall_s":         median(walls),
		"ops_per_s":      median(rates),
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p90_ms": quantile(lat, 0.9),
		"allocs_per_op":  median(allocs),
		"peak_rss_mib":   median(rss),
	}
}

// layerValues merges the traced passes' span self times and counters
// with the workload's own per-layer metrics and the tracing overhead.
func (m *measurement) layerValues(cfg config, rep *report) map[string]float64 {
	v := map[string]float64{}
	var tracedWalls, untracedWalls, gcs, selfFracs []float64
	self := map[string]float64{}
	counts := map[string]float64{}
	conc := float64(concurrency(cfg))
	for _, p := range m.traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		gcs = append(gcs, float64(p.gc))
		var passSelf float64
		for name, s := range p.rec.selfTimes() {
			self[name] += s
			passSelf += s
		}
		if p.wall > 0 {
			selfFracs = append(selfFracs, passSelf/(conc*p.wall.Seconds()))
		}
		for name, c := range p.rec.snapshotCounts() {
			counts[name] += c
		}
	}
	for _, p := range m.untraced {
		untracedWalls = append(untracedWalls, p.wall.Seconds())
	}
	n := float64(len(m.traced))
	for name, s := range self {
		v[name+".busy_s"] = s / n
	}
	for name, c := range counts {
		v[name] = c / n
	}
	for name, x := range rep.layer {
		v[name] = x
	}
	tw := median(tracedWalls)
	v["trace.wall_s"] = tw
	v["trace.overhead_s"] = tw - median(untracedWalls)
	v["trace.self_frac"] = median(selfFracs)
	v["runtime.gc_cycles"] = median(gcs)
	v["mobility.cache_misses"] = float64(m.cacheMisses)
	v["failed_frac"] = float64(rep.failed) / math.Max(1, float64(rep.attempted))
	return v
}

// concurrency is how many goroutines run the workload's spans at once.
func concurrency(cfg config) int {
	switch cfg.workload {
	case "table1", "delay-sweep":
		return cfg.workers
	case "serve-mix":
		return cfg.clients
	}
	return 1
}

// provenanceRecord says what produced a result.
type provenanceRecord struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Workers    int            `json:"workers"`
	Clients    int            `json:"clients"`
	Server     string         `json:"server"`
	Samples    map[string]int `json:"samples"`
	PassWalls  []float64      `json:"untraced_pass_walls_s"`
}

func provenance(cfg config, m *measurement, setups int) provenanceRecord {
	ops, lat := 0, 0
	var walls []float64
	for _, p := range m.untraced {
		ops += p.ops
		lat += len(p.lat)
		walls = append(walls, p.wall.Seconds())
	}
	return provenanceRecord{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Seconds:    cfg.seconds,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workers:    cfg.workers,
		Clients:    cfg.clients,
		Server:     fmt.Sprintf("%d concurrent x %d workers", cfg.serverConcurrent, cfg.serverWorkers),
		Samples: map[string]int{
			"setups":          setups,
			"untraced_passes": len(m.untraced),
			"traced_passes":   len(m.traced),
			"untraced_ops":    ops,
			"latency_samples": lat,
		},
		PassWalls: walls,
	}
}

// commit is the VCS revision the binary was built from, or "unknown"
// outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set. Where the kernel lacks the control, the mark
// keeps the process-wide peak, an upper bound of the pass's own.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// writeTrace writes the last traced pass's span trees with the run's
// provenance.
func writeTrace(cfg config, prov provenanceRecord, traced []*passRecord) error {
	if len(traced) == 0 {
		return errors.New("no traced pass to write")
	}
	doc := struct {
		Provenance provenanceRecord `json:"provenance"`
		Trees      any              `json:"trees"`
	}{prov, traced[len(traced)-1].rec.trees()}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	return os.WriteFile(path, b, 0o644)
}
