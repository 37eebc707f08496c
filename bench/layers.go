package main

// metricDef names one metric of the benchmark's contract. The tables
// below are the single list the program reports from; BENCHMARK.json
// repeats them for the driver and a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base by which it may worsen
}

// endToEnd is measured with tracing off, the same names on every
// workload. failed operations are reported beside the metrics (the
// contract's "failed" and "correct"), not among them: the benchmark's
// workloads are chosen so that nothing fails, and a metric that is
// always 0 cannot carry a relative bound.
//
// The timing bounds are the driver's maximum. Times are reported at
// the reference machine's speed (calib.go); what is left after that
// correction spread 3-20% (interquartile range ÷ median over ten
// seeds, widest on serve-mix) while the host's slowdown moved between
// 1.03 and 1.73, against 24-46% by the clock. Allocation repeats to
// 1-2% on the ad-hoc workloads, but on serve-mix the seed's literals
// decide how much each execution scans and it spread 9-12.5%, so it
// carries the same bound; virtual_s spread up to 5% (plans flip with
// the seed's data at the smaller sizes).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_geomean_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"alloc_mb_per_query", "MB", "lower", 0.25},
	{"virtual_s", "s", "lower", 0.16},
}

// perLayer is reported by the traced run. A workload that bypasses a
// layer reports that layer's metrics as 0: no work done there, no time
// spent there.
var perLayer = []metricDef{
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparse.normalize_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.compile_us", Unit: "us", Better: "lower"},

	{Name: "core.pilot_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pilot_jobs", Unit: "count", Better: "lower"},
	{Name: "core.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.exec_residual_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.jobs", Unit: "count", Better: "lower"},
	{Name: "core.map_only_jobs", Unit: "count", Better: "higher"},
	{Name: "core.plan_changes", Unit: "count", Better: "lower"},
	{Name: "core.cold_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.first_round_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.groups_expanded", Unit: "count", Better: "lower"},
	{Name: "optimizer.groups_pruned", Unit: "count", Better: "higher"},
	{Name: "optimizer.groups_reused", Unit: "count", Better: "higher"},

	{Name: "batch.image_build_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "batch.select_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "batch.keys_hash_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "stats.observe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "stats.merge_us", Unit: "us", Better: "lower"},
	{Name: "data.normkey_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "data.hash64_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "dfs.append_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "mapreduce.repartition_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mapreduce.broadcast_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cluster.noop_task_us", Unit: "us", Better: "lower"},

	{Name: "wire.block_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.block_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.block_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wire.shuffle_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.shuffle_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.sortkvs_ns_per_pair", Unit: "ns", Better: "lower"},

	{Name: "procruntime.tasks", Unit: "count", Better: "lower"},
	{Name: "procruntime.rpcs", Unit: "count", Better: "lower"},
	{Name: "procruntime.tasks_per_rpc", Unit: "ratio", Better: "higher"},
	{Name: "procruntime.bytes_out", Unit: "B", Better: "lower"},
	{Name: "procruntime.bytes_in", Unit: "B", Better: "lower"},
	{Name: "procruntime.peer_fetches", Unit: "count", Better: "lower"},
	{Name: "procruntime.peer_shuffle_bytes", Unit: "B", Better: "lower"},
	{Name: "procruntime.ctl_shuffle_bytes", Unit: "B", Better: "lower"},
	{Name: "procruntime.exec_map_ms", Unit: "ms", Better: "lower"},
	{Name: "procruntime.exec_reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "procruntime.exec_task_p50_us", Unit: "us", Better: "lower"},
	{Name: "procruntime.exec_task_p90_us", Unit: "us", Better: "lower"},
	{Name: "procruntime.worker_tasks_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "procruntime.worker_shuffle_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "procruntime.worker_requests", Unit: "count", Better: "lower"},
	{Name: "procruntime.dispatch_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "procruntime.mirror_bytes", Unit: "B", Better: "lower"},
	{Name: "procruntime.worker_block_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "procruntime.worker_table_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "procruntime.worker_shuffle_evictions", Unit: "count", Better: "lower"},
	{Name: "procruntime.sim_wall_ratio", Unit: "ratio", Better: "lower"},

	{Name: "server.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "server.dedup_rate", Unit: "ratio", Better: "higher"},
	{Name: "server.plan_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "server.exec_rate", Unit: "ratio", Better: "lower"},
	{Name: "server.hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.hit_p90_us", Unit: "us", Better: "lower"},
	{Name: "server.exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.exec_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.invalidate_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cold_first_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stats_reused_leaves", Unit: "count", Better: "higher"},
	{Name: "server.pilot_jobs", Unit: "count", Better: "lower"},
	{Name: "server.memo_groups_reused", Unit: "count", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.timeouts", Unit: "count", Better: "lower"},
	{Name: "server.client_scaling", Unit: "ratio", Better: "higher"},

	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "process.heap_live_mb_end", Unit: "MB", Better: "lower"},
	{Name: "process.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// layerSet collects a traced run's per-layer values.
type layerSet map[string]float64

// metrics renders the set as the contract's per-layer metrics, every
// name present: a layer the workload never entered reads 0.
func (l layerSet) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metric{Value: l[d.Name], Unit: d.Unit}
	}
	return out
}
