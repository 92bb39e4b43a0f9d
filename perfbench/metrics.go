package main

// metric is one benchmark metric as BENCHMARK.json declares it.
type metric struct {
	name, unit, better string
	// moves names the end-to-end metrics a per-layer metric should move,
	// and on which workload; empty for end-to-end metrics.
	moves string
}

// endToEnd are the metrics an untraced run reports, on every workload.
// An op is the workload's unit of work: a grid cell (table1,
// delay-sweep), one slot-level simulation of a fixed slot count
// (packet-sim) or one run from POST to report (serve-mix), so ops_per_s
// is cells/s, simulations/s or runs/s. The latencies are per request: a
// whole sweep (one pass) on table1 and delay-sweep, one simulation on
// packet-sim, one run on serve-mix.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer a workload does not reach reads 0. busy_s metrics are a layer's
// span self time per pass, summed over workers.
var perLayer = []metric{
	{"network.new.busy_s", "s", "lower", "ops_per_s on table1, delay-sweep"},
	{"network.new.calls", "count", "lower", "ops_per_s on table1, delay-sweep"},
	{"traffic.permutation.busy_s", "s", "lower", "ops_per_s on table1, delay-sweep"},
	{"linkcap.analytic.busy_s", "s", "lower", "setup_s on table1, delay-sweep"},
	{"mobility.cache_misses", "count", "lower", "setup_s on every workload; 0 inside timed passes"},
	{"routing.schemeA.busy_s", "s", "lower", "ops_per_s, wall_s on table1, delay-sweep"},
	{"routing.schemeB.busy_s", "s", "lower", "ops_per_s, wall_s on table1, delay-sweep"},
	{"routing.schemeBcluster.busy_s", "s", "lower", "ops_per_s, wall_s on table1"},
	{"routing.gridMultihop.busy_s", "s", "lower", "ops_per_s, wall_s on table1"},
	{"routing.schemeC.busy_s", "s", "lower", "ops_per_s, wall_s on table1"},
	{"routing.twoHop.busy_s", "s", "lower", "ops_per_s on delay-sweep"},
	{"routing.d2d.busy_s", "s", "lower", "ops_per_s on delay-sweep"},
	{"delay.d2d.busy_s", "s", "lower", "ops_per_s on delay-sweep"},
	{"delay.twoHop.busy_s", "s", "lower", "ops_per_s on delay-sweep"},
	{"delay.schemeA.busy_s", "s", "lower", "ops_per_s on delay-sweep"},
	{"delay.schemeB.busy_s", "s", "lower", "ops_per_s on delay-sweep"},
	{"routing.unroutable", "count", "lower", "failed_frac on table1, delay-sweep"},
	{"delay.observations", "count", "higher", "failed_frac on delay-sweep"},
	{"delay.unroutable", "count", "lower", "failed_frac on delay-sweep"},
	{"engine.failed_cells", "count", "lower", "nothing unless outputs change; cells the program reports failed (unroutable) and its sweep tolerates, table1 and delay-sweep"},
	{"engine.busy_frac", "ratio", "higher", "ops_per_s on table1, delay-sweep"},
	{"engine.max_cell_s", "s", "lower", "wall_s on table1"},
	{"runtime.gc_cycles", "count", "lower", "allocs_per_op on every workload"},
	{"sim.twoHop.busy_s", "s", "lower", "ops_per_s on packet-sim"},
	{"sim.multihop.busy_s", "s", "lower", "ops_per_s on packet-sim"},
	{"sim.infra.busy_s", "s", "lower", "ops_per_s on packet-sim"},
	{"sim.infraAssoc.busy_s", "s", "lower", "ops_per_s on packet-sim"},
	{"mobility.step.busy_s", "s", "lower", "ops_per_s on packet-sim"},
	{"spatial.rebuild.busy_s", "s", "lower", "ops_per_s on packet-sim"},
	{"scheduler.sstar.busy_s", "s", "lower", "ops_per_s on packet-sim"},
	{"scheduler.scheduled_frac", "ratio", "higher", "nothing on packet-sim unless outputs change"},
	{"sim.delivered_frac", "ratio", "higher", "nothing on packet-sim unless outputs change"},
	{"sim.handovers", "count", "lower", "nothing on packet-sim unless outputs change"},
	{"server.post.p50_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"server.report_get.p50_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"server.result_cache_hit_frac", "ratio", "higher", "latency_p50_ms on serve-mix"},
	{"server.queue_wait.p50_ms", "ms", "lower", "latency_p90_ms, ops_per_s on serve-mix"},
	{"server.queue_wait.p90_ms", "ms", "lower", "latency_p90_ms, ops_per_s on serve-mix"},
	{"server.run.p50_ms", "ms", "lower", "latency_p90_ms, ops_per_s on serve-mix"},
	{"server.run.p90_ms", "ms", "lower", "latency_p90_ms, ops_per_s on serve-mix"},
	{"server.polls_per_run", "count", "lower", "latency_p90_ms, ops_per_s on serve-mix"},
	{"cellcache.hit_frac", "ratio", "higher", "ops_per_s on serve-mix"},
	{"cellcache.corrupt", "count", "lower", "ops_per_s on serve-mix"},
	{"server.shed_frac", "ratio", "lower", "failed_frac on serve-mix"},
	{"fit_max_abs_dev", "exponent", "lower", "nothing; largest |measured - theory| capacity exponent over the Table-I rows, table1 only"},
	{"failed_frac", "ratio", "lower", "the result's failed/attempted on every workload"},
	{"trace.wall_s", "s", "lower", "wall_s on every workload (traced)"},
	{"trace.overhead_s", "s", "lower", "nothing; traced wall_s minus untraced wall_s"},
	{"trace.self_frac", "ratio", "higher", "nothing; span self time over concurrency x traced wall, per pass"},
}
