package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (a test keeps the two in step) and adds the bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the user-visible metrics of an untraced run. Every
// workload reports every one of them, and none can read 0 on a correct
// run: each is a time, a rate, a size or a ratio of at least 1.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.p90", "ms", "lower"},
	{"nets_per_s", "nets/s", "higher"},
	{"delay_vs_lb", "ratio", "lower"},
	{"area_vs_rows", "ratio", "lower"},
	{"wirelen_vs_hpwl", "ratio", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. Times are mean self time
// per call of the named layer (its span minus its child spans); counts
// are per routing run. A workload that never calls a layer reports 0
// for it (for example every core.* metric on per-net).
var perLayer = []metricDef{
	{"gen.generate_ms", "ms", "lower"},
	{"circuit.parse_ms", "ms", "lower"},
	{"circuit.validate_ms", "ms", "lower"},
	{"core.route_ms", "ms", "lower"},
	{"core.prephase_ms", "ms", "lower"},
	{"core.initial_ms", "ms", "lower"},
	{"core.recover_ms", "ms", "lower"},
	{"core.improve_delay_ms", "ms", "lower"},
	{"core.improve_area_ms", "ms", "lower"},
	{"core.select_ms", "ms", "lower"},
	{"core.select_calls", "count", "lower"},
	{"core.scored_nets", "count", "lower"},
	{"core.reused_nets", "count", "higher"},
	{"core.scored_per_deletion", "count", "lower"},
	{"core.reuse_ratio", "ratio", "higher"},
	{"core.deletions", "count", "lower"},
	{"core.reroutes", "count", "lower"},
	{"core.reroute_accept_ratio", "ratio", "higher"},
	{"dgraph.flush_ms", "ms", "lower"},
	{"dgraph.flushes", "count", "lower"},
	{"dgraph.cons_per_flush", "count", "lower"},
	{"dgraph.new_ms", "ms", "lower"},
	{"experiment.final_delay_ms", "ms", "lower"},
	{"experiment.violations", "count", "lower"},
	{"seqroute.route_ms", "ms", "lower"},
	{"steiner.route_ms", "ms", "lower"},
	{"chanroute.route_ms", "ms", "lower"},
	{"chanroute.tracks", "count", "lower"},
	{"routedb.build_ms", "ms", "lower"},
	{"routedb.marshal_ms", "ms", "lower"},
	{"routedb.bytes", "bytes", "lower"},
	{"render.svg_ms", "ms", "lower"},
	{"render.layout_ms", "ms", "lower"},
	{"report.timing_ms", "ms", "lower"},
	{"service.submit_ms.p50", "ms", "lower"},
	{"service.wait_ms.hit.p50", "ms", "lower"},
	{"service.wait_ms.miss.p50", "ms", "lower"},
	{"service.route_ms.p50", "ms", "lower"},
	{"service.fetch_ms.p50", "ms", "lower"},
	{"service.hit_ratio", "ratio", "higher"},
	{"service.dedupe_ratio", "ratio", "higher"},
	{"service.refused", "count", "lower"},
	{"loadgen.late_ms.p99", "ms", "lower"},
	{"loadgen.late_ms.max", "ms", "lower"},
	{"runtime.cpu_ms_per_op", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_count_per_op", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}
