//go:build linux

package main

// metricDef describes one reported metric. The per-run subset (the
// bounded end-to-end metrics and every per-layer metric) must match
// BENCHMARK.json name for name and unit for unit; the smoke test
// enforces that.
type metricDef struct {
	Name  string
	Unit  string
	Lower bool // smaller is better
	// Bounded marks the end-to-end metrics BENCHMARK.json lists with a
	// regression bound: every workload reports them on every run, they
	// are never 0, and they repeat within their bound.
	Bounded bool
}

// endToEnd are the user-visible metrics. The unbounded ones live in the
// envelope, not in the per-run result line: op_p99_ms and
// cached_op_p50_ms exist only where a workload has the samples,
// failed_share is 0 by design, and the latency metrics varied between
// runs of the same code by more than any bound the benchmark may set
// (README.md). -compare judges the bounded ones and failed_share.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Lower: true, Bounded: true},
	{Name: "ops_per_s", Unit: "1/s", Bounded: true},
	{Name: "op_p50_ms", Unit: "ms", Lower: true},
	{Name: "op_p90_ms", Unit: "ms", Lower: true},
	{Name: "op_p99_ms", Unit: "ms", Lower: true},
	{Name: "failed_share", Unit: "ratio", Lower: true},
	{Name: "cached_op_p50_ms", Unit: "ms", Lower: true},
	{Name: "peak_rss_mb", Unit: "MB", Lower: true, Bounded: true},
}

// perLayer are the attribution metrics of the traced run, named
// <module>.<what>. Each is a per-op (or per-shard, per-job, per-probe
// call) sample whose median the per-run result line reports; a layer the
// workload never enters reports 0. README.md names the end-to-end
// metric and workload each one should move.
var perLayer = []metricDef{
	{Name: "source.parse_ms", Unit: "ms", Lower: true},
	{Name: "model.build_ms", Unit: "ms", Lower: true},
	{Name: "pattern.detect_ms", Unit: "ms", Lower: true},
	{Name: "tadl.annotate_ms", Unit: "ms", Lower: true},
	{Name: "transform.code_ms", Unit: "ms", Lower: true},
	{Name: "interp.profile_ms", Unit: "ms", Lower: true},
	{Name: "interp.profile_runs", Unit: "count", Lower: true},
	{Name: "interp.compile_ms", Unit: "ms", Lower: true},
	{Name: "sched.validate_ms", Unit: "ms", Lower: true},
	{Name: "sched.schedules", Unit: "count", Lower: true},
	{Name: "core.other_ms", Unit: "ms", Lower: true},
	{Name: "difftest.generate_ms", Unit: "ms", Lower: true},
	{Name: "interp.tree_run_ms", Unit: "ms", Lower: true},
	{Name: "interp.vm_run_ms", Unit: "ms", Lower: true},
	{Name: "difftest.engine_leg_ms", Unit: "ms", Lower: true},
	{Name: "core.process_ms", Unit: "ms", Lower: true},
	{Name: "sched.explore_ms", Unit: "ms", Lower: true},
	{Name: "parrt.exec_ms", Unit: "ms", Lower: true},
	{Name: "fleet.shard_rtt_ms", Unit: "ms", Lower: true},
	{Name: "fleet.wire_overhead_ms", Unit: "ms", Lower: true},
	{Name: "fleet.shards", Unit: "count", Lower: true},
	{Name: "fleet.merged_evals", Unit: "count", Lower: true},
	{Name: "fleet.useful_eval_ratio", Unit: "ratio"},
	{Name: "fleet.audit_evals", Unit: "count", Lower: true},
	{Name: "fleet.audit_ms", Unit: "ms", Lower: true},
	{Name: "fleet.replay_ms", Unit: "ms", Lower: true},
	{Name: "fleet.local_evals", Unit: "count", Lower: true},
	{Name: "tuning.local_search_ms", Unit: "ms", Lower: true},
	{Name: "tuning.journal_flush_ms", Unit: "ms", Lower: true},
	{Name: "tuning.journal_append_ms", Unit: "ms", Lower: true},
	{Name: "serve.admission_ms", Unit: "ms", Lower: true},
	{Name: "evalcache.program_hash_ms", Unit: "ms", Lower: true},
	{Name: "jobs.queue_wait_ms", Unit: "ms", Lower: true},
	{Name: "jobs.fuzz_run_ms", Unit: "ms", Lower: true},
	{Name: "jobs.tune_run_ms", Unit: "ms", Lower: true},
	{Name: "jobs.cached_run_ms", Unit: "ms", Lower: true},
	{Name: "serve.cached_op_ms", Unit: "ms", Lower: true},
	{Name: "store.append_ms", Unit: "ms", Lower: true},
	{Name: "store.appends_per_job", Unit: "count", Lower: true},
	{Name: "evalcache.get_ms", Unit: "ms", Lower: true},
	{Name: "evalcache.put_ms", Unit: "ms", Lower: true},
	{Name: "evalcache.hit_ratio", Unit: "ratio"},
	{Name: "loadgen.lag_ms", Unit: "ms", Lower: true},
}

// metricByName finds a definition in either list.
func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
