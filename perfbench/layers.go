package main

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run reports all of them; a metric of a layer the workload
// does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.new_s", "s"},
	{"core.step_s", "s"},
	{"core.worker_wait_s", "s"},
	{"core.load_imbalance", "ratio"},
	{"core.oe_rounds", "count"},
	{"core.oe_active_fraction", "ratio"},
	{"core.segments", "count"},
	{"core.facets", "count"},
	{"core.collisions", "count"},
	{"core.census", "count"},
	{"core.event_kernel.self_s", "s"},
	{"core.event_kernel.ns_per_segment", "ns"},
	{"core.facet_kernel.self_s", "s"},
	{"core.facet_kernel.ns_per_facet", "ns"},
	{"core.collision_kernel.self_s", "s"},
	{"core.collision_kernel.ns_per_collision", "ns"},
	{"core.fused.self_s", "s"},
	{"core.fused.ns_per_event", "ns"},
	{"core.kernel_launches", "count"},
	{"tally.atomic_conflicts", "count"},
	{"service.engine.queue_wait_p50_s", "s"},
	{"service.engine.queue_wait_p99_s", "s"},
	{"service.engine.run_p50_s", "s"},
	{"service.engine.cache_hit_ratio", "ratio"},
	{"service.engine.runs", "count"},
	{"service.engine.rejected", "count"},
	{"service.http.submit_p50_s", "s"},
	{"service.http.hit_p50_s", "s"},
	{"service.http.overhead_p50_s", "s"},
	{"service.http.errors", "count"},
	{"service.sse.step_lag_p50_s", "s"},
	{"scene.submit_p50_s", "s"},
	{"stats.ensemble_p50_s", "s"},
	{"telemetry.scrape_p50_s", "s"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_s", "s"},
	{"fail_ratio", "ratio"},
}

// zeroLayers returns every per-layer metric at 0, for a runner to fill in.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}
