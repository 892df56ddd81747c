package main

import "fmt"

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all
// of them with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"guarantee_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"accept_p50_ms", "ms"},
	{"decide_p50_ms", "ms"},
}

// perLayer is what a traced run reports, in layer order. A layer a
// workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"workload.generate_s", "s"},
	{"workload.alloc_mb", "MB"},
	{"graph.topology_s", "s"},
	{"core.new_cluster_s", "s"},
	{"core.new_cluster_alloc_mb", "MB"},
	{"routing.bootstrap_msgs", "count"},
	{"routing.bootstrap_mb", "MB"},
	{"routing.bootstrap_rounds", "count"},
	{"routing.table_bytes_max", "bytes"},
	{"routing.entries_max", "count"},
	{"core.run_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"core.run_alloc_bytes_per_event", "bytes"},
	{"core.run_mallocs_per_event", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"sim.p1_run_s", "s"},
	{"core.msgs_per_job", "count"},
	{"core.bytes_per_job", "bytes"},
	{"core.acs_mean", "sites"},
	{"core.cross_region_msgs", "count"},
	{"core.distributed_success_ratio", "ratio"},
	{"core.reject_empty_acs", "count"},
	{"core.reject_mapper", "count"},
	{"core.reject_matching", "count"},
	{"gateway.submit_self_ms_p50", "ms"},
	{"gateway.submit_self_ms_p99", "ms"},
	{"gateway.forward_ms_p50", "ms"},
	{"gateway.forward_ms_p99", "ms"},
	{"gateway.status_read_ms_p50", "ms"},
	{"gateway.status_read_ms_p99", "ms"},
	{"gateway.poll_ms_p50", "ms"},
	{"gateway.poll_ms_p99", "ms"},
	{"gateway.poll_jobs_per_call", "count"},
	{"gateway.rejected_429", "count"},
	{"joblog.fsync_ms_p50", "ms"},
	{"joblog.fsync_ms_p99", "ms"},
	{"joblog.records_per_fsync", "count"},
	{"core.handler_us_p50", "us"},
	{"core.handler_us_p99", "us"},
	{"core.handler_msgs", "count"},
	{"core.timer_us_p50", "us"},
	{"core.timer_us_p99", "us"},
	{"wire.send_us_p50", "us"},
	{"wire.send_us_p99", "us"},
	{"wire.bytes_per_msg", "bytes"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"wire.allocs_per_decode", "count"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead_share", "share"},
}

// complete orders res.metrics as specs lists them, adds a layer the
// workload did not exercise as 0, and rejects names or units outside the
// list (a bug in the benchmark, not in the program).
func complete(res *result, specs []metricSpec, zeroMissing bool) error {
	got := make(map[string]metric, len(res.metrics))
	for _, m := range res.metrics {
		got[m.name] = m
	}
	out := make([]metric, 0, len(specs))
	for _, s := range specs {
		m, ok := got[s.name]
		switch {
		case !ok && zeroMissing:
			m = metric{name: s.name, unit: s.unit, note: "layer not exercised by this workload"}
		case !ok:
			return fmt.Errorf("metric %s not measured", s.name)
		case m.unit != s.unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", s.name, m.unit, s.unit)
		}
		delete(got, s.name)
		out = append(out, m)
	}
	for name := range got {
		return fmt.Errorf("metric %s is not declared", name)
	}
	res.metrics = out
	return nil
}
