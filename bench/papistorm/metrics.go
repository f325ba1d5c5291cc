package main

// metricDef describes one end-to-end metric: what a user of papid sees.
// Lower is better for all of them. bound is the share of the baseline
// by which the metric may worsen before -compare (and the driver that
// reads BENCHMARK.json) calls it a regression. The time-based ones
// (lag, ack, query, CPU) are reported at reference host speed
// (report.go) and carry the largest bound the contract allows: ten runs
// of one commit spread 2-12% of the median from quartile to quartile in
// the worst half hour recorded, 17-36% uncorrected; bench/RECORDED.md
// has the runs.
type metricDef struct {
	name  string
	unit  string
	bound float64
}

// endToEnd is reported by every workload with -trace 0. BENCHMARK.json
// carries the same list; the package test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"delivery_lag_p50_us", "us", 0.25},
	{"publish_ack_p50_us", "us", 0.25},
	{"query_range_p50_us", "us", 0.25},
	{"bytes_per_frame", "B", 0.02},
	{"papid_cpu_ms_per_s", "ms/s", 0.25},
	{"papid_rss_mb", "MiB", 0.15},
}

// perLayer names every per-layer metric -trace 1 reports, in report
// order. A layer a workload bypasses reports 0 for its metrics: that
// the layer did no work there is the finding.
var perLayer = []string{
	"papi.run_us_per_tick", "papi.read_ns", "papi.run_allocs_per_tick", "papi.run_bytes_per_tick",
	"papi.create_session_us",
	"hwsim.instr_per_host_s", "hwsim.retired_per_tick", "hwsim.cycles_per_tick",
	"tsdb.append_ns_per_row", "tsdb.append_allocs_per_row", "tsdb.query_range_us", "tsdb.query_raw_us",
	"tsdb.query_range_allocs", "tsdb.bytes_per_sample", "tsdb.sweep_us",
	"wal.append_sync_ns_per_row", "wal.append_batch_ns_per_row", "wal.bytes_per_row", "wal.fsyncs",
	"wal.replay_rows_per_s", "wal.replay_allocs_per_row", "wal.recovery_ms", "wal.replayed_rows",
	"wire.encode_binary_ns", "wire.encode_json_ns", "wire.decode_binary_ns", "wire.decode_json_ns",
	"wire.request_decode_ns", "wire.encode_query_us", "wire.frame_bytes_binary",
	"wire.frame_bytes_json", "wire.frame_bytes_delta", "wire.frame_bytes_projected", "wire.delta_apply_ns",
	"derive.tick_ns", "derive.eval_history_us",
	"server.tick_mean_us", "server.tick_p99_us", "server.op_publish_mean_us", "server.op_query_mean_us",
	"server.frames_sent", "server.bytes_sent", "server.snapshots_dropped", "server.write_drops",
	"server.deltas_dropped", "server.derived_dropped", "server.encode_failures", "server.evictions",
	"server.tick_stalls", "server.keyframe_share", "server.alloc_cache_hit_ratio", "server.cpu_us_per_frame",
	"client.delivery_lag_p90_us", "client.delivery_lag_p99_us", "client.tick_lag_p50_us", "client.tick_lag_p99_us",
	"client.publish_lag_p50_us", "client.publish_lag_p99_us", "client.lag_binary_p50_us",
	"client.lag_json_p50_us", "client.lag_events_p50_us", "client.lag_delta_p50_us",
	"client.publish_ack_p99_us", "client.query_range_p90_us", "client.query_range_p99_us", "client.query_raw_p50_us",
	"client.query_derive_p50_us", "client.gen_late_p75_us", "client.gen_late_p90_us", "client.gen_late_p95_us",
	"client.gen_late_p99_us", "client.backlog_end", "client.cpu_ms_per_s",
	"client.host_gauge_ms_per_s", "client.host_speed",
	"client.delivered_ratio", "client.failed_share", "client.samples_lag", "client.samples_query_range",
	"trace.overhead_ns_per_span", "trace.rows", "trace.queries",
}
