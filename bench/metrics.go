package main

// metricDef is one row of BENCHMARK.json. The tables below are what the
// program emits; bench_test.go holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the flow or of tpid sees; every workload
// reports every one of them from the untraced pass. Each bound is at
// least three times the widest interquartile spread the metric showed over
// ten seeds on any workload on a quiet sandbox; the times and the memory
// have the widest bound the contract allows, because the acceptance check's
// host spreads them four times wider (README.md, "Bounds"). The three table-quality
// metrics repeat exactly for one seed, so between two builds measured on
// the same seeds any change in them is a real one.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_iqm_ms", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_s_per_op", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"chip_area_mm2", "mm2", lower, 0.02},
	{"wirelength_mm", "mm", lower, 0.02},
	{"tcp_ns", "ns", lower, 0.06},
}

// perLayer comes from the traced pass; layer = package name. A metric a
// workload has no source for (ATPG counters on sweep_phys, service timings
// on the sweeps) reads 0 there.
var perLayer = []metricDef{
	// Fig. 2 stage busy time per op, from the spans flow opens around each layer's call.
	{Name: "tpi.busy_s", Unit: "s", Better: lower},
	{Name: "scan.busy_s", Unit: "s", Better: lower},
	{Name: "place.busy_s", Unit: "s", Better: lower},
	{Name: "atpg.busy_s", Unit: "s", Better: lower},
	{Name: "cts.busy_s", Unit: "s", Better: lower},
	{Name: "eco.busy_s", Unit: "s", Better: lower},
	{Name: "route.busy_s", Unit: "s", Better: lower},
	{Name: "extract.busy_s", Unit: "s", Better: lower},
	{Name: "sta.busy_s", Unit: "s", Better: lower},
	{Name: "flow.other_s", Unit: "s", Better: lower},

	// Inside ATPG, per op, from its histogram sums and counters.
	{Name: "atpg.podem_s", Unit: "s", Better: lower},
	{Name: "atpg.sim_good_s", Unit: "s", Better: lower},
	{Name: "atpg.sim_detect_s", Unit: "s", Better: lower},
	{Name: "atpg.other_s", Unit: "s", Better: lower},
	{Name: "atpg.podem_p50_us", Unit: "us", Better: lower},
	{Name: "atpg.podem_p99_us", Unit: "us", Better: lower},
	{Name: "atpg.podem_targets", Unit: "count", Better: lower},
	{Name: "atpg.podem_backtracks", Unit: "count", Better: lower},
	{Name: "atpg.sim_detect_calls", Unit: "count", Better: lower},
	{Name: "atpg.patterns", Unit: "count", Better: lower},
	{Name: "atpg.aborted_classes", Unit: "count", Better: lower},
	{Name: "atpg.untestable_classes", Unit: "count", Better: lower},
	{Name: "atpg.podem_useful_ratio", Unit: "ratio", Better: higher},
	{Name: "atpg.fe_pct", Unit: "%", Better: higher},
	{Name: "atpg.tdv_kbit", Unit: "kbit", Better: lower},

	// Physical work, per op.
	{Name: "tpi.points", Unit: "count", Better: lower},
	{Name: "place.fm_moves_tried", Unit: "count", Better: lower},
	{Name: "place.fm_accept_ratio", Unit: "ratio", Better: higher},
	{Name: "route.nets", Unit: "count", Better: lower},
	{Name: "route.overflows", Unit: "count", Better: lower},
	{Name: "cts.buffers", Unit: "count", Better: lower},

	// No span covers these; the bench times the public call (median per circuit).
	{Name: "circuitgen.generate_ms", Unit: "ms", Better: lower},
	{Name: "circuitgen.writebench_ms", Unit: "ms", Better: lower},
	{Name: "circuitgen.readbench_ms", Unit: "ms", Better: lower},
	{Name: "netlist.clone_ms", Unit: "ms", Better: lower},
	{Name: "netlist.prewarm_ms", Unit: "ms", Better: lower},

	// The same layer used the other way, one extra op each (sweep_atpg only).
	{Name: "flow.incr_vs_full", Unit: "ratio", Better: lower},
	{Name: "flow.w2_speedup", Unit: "ratio", Better: higher},

	// tpid, from HTTP round trips, JobStatus timestamps and /v1/stats deltas.
	{Name: "service.submit_ms", Unit: "ms", Better: lower},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: lower},
	{Name: "service.run_ms", Unit: "ms", Better: lower},
	{Name: "service.tax_ms", Unit: "ms", Better: lower},
	{Name: "service.result_ms", Unit: "ms", Better: lower},
	{Name: "service.result_kb", Unit: "kB", Better: lower},
	{Name: "service.sse_events_per_job", Unit: "count", Better: lower},
	{Name: "service.heap_mb_per_job", Unit: "MB", Better: lower},
	{Name: "service.recover_ms", Unit: "ms", Better: lower},
	{Name: "service.replayed_jobs", Unit: "count", Better: lower},
	{Name: "service.cold_p50_ms", Unit: "ms", Better: lower},
	{Name: "service.coalesced_p50_ms", Unit: "ms", Better: lower},
	{Name: "service.extend_p50_ms", Unit: "ms", Better: lower},
	{Name: "service.hit_p50_ms", Unit: "ms", Better: lower},
	{Name: "service.hit_p90_ms", Unit: "ms", Better: lower},
	{Name: "service.flow_runs", Unit: "count", Better: lower},
	{Name: "service.levels_run", Unit: "count", Better: lower},
	{Name: "service.levels_resumed", Unit: "count", Better: higher},
	{Name: "service.cache_hits", Unit: "count", Better: higher},
	{Name: "service.dedupe_ratio", Unit: "ratio", Better: higher},

	// The stores, called directly on a temp dir (tpid_cold only). Sandbox
	// disk latency is not hardware truth: read these as ratios between builds.
	{Name: "journal.append_us", Unit: "us", Better: lower},
	{Name: "journal.append_nosync_us", Unit: "us", Better: lower},
	{Name: "journal.open_ms", Unit: "ms", Better: lower},
	{Name: "journal.bytes_per_job", Unit: "B", Better: lower},
	{Name: "trachive.put_ms", Unit: "ms", Better: lower},
	{Name: "trachive.bytes_per_run", Unit: "B", Better: lower},
	{Name: "tracecmp.diff_ms", Unit: "ms", Better: lower},

	// The whole process over the measured phase.
	{Name: "proc.cpu_per_wall", Unit: "ratio", Better: lower},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: lower},
	{Name: "proc.allocs_per_op", Unit: "count", Better: lower},
	{Name: "proc.gc_cycles_per_op", Unit: "count", Better: lower},
	{Name: "proc.gc_cpu_pct", Unit: "%", Better: lower},
	{Name: "telemetry.events_per_sweep", Unit: "count", Better: lower},
	{Name: "telemetry.overhead_pct", Unit: "%", Better: lower},
}
