package main

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (`go run ./bench -manifest`) and the smoke test checks that the
// file on disk still matches them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are what a user of the system sees, measured with tracing off.
// Bound is the share of the parent's median by which the metric may worsen.
// Every wall-clock metric carries the widest bound the contract allows: on
// the 2-vCPU box this was written on, a fixed CPU loop's speed drifts by
// ±10–25 % over minutes, and identical runs of a workload spread (quartile
// distance over median) by 4–12 % in calm periods and over 20 % in bad ones
// (README, measured baseline). Accuracy is exact but for one Spider task;
// allocation is exact except under ingest, where it depends on how reads
// and the writer's cache warming interleave.
// failed_frac is not here because it is 0 on every healthy run (the
// contract wants metrics that are never 0): it is the result line's
// failed/attempted, and any failure makes the run incorrect.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "synth_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "synth_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_cand_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "top1_acc", Unit: "fraction", Better: "higher", Bound: 0.01},
	{Name: "topk_acc", Unit: "fraction", Better: "higher", Bound: 0.01},
	{Name: "alloc_mb_per_req", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the single-layer metrics of the traced pass. README.md lists,
// for each, the end-to-end metric it should move and on which workload.
var perLayer = func() []metricDef {
	lower := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	higher := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "higher"})
		}
		return out
	}
	var defs []metricDef
	add := func(more []metricDef) { defs = append(defs, more...) }

	add(lower("ms", "enumerate.search_ms_p50"))
	add(lower("us", "enumerate.us_per_state"))
	add(lower("fraction", "enumerate.self_share"))
	add(lower("count", "enumerate.states_per_req"))
	add(higher("count", "enumerate.cands_per_req"))

	add(lower("fraction", "guidance.share"))
	add(lower("count", "guidance.calls_per_req"))
	add(lower("us", "guidance.us_per_call"))

	add(lower("fraction", "semrules.share"))
	add(lower("count", "semrules.checks_per_req"))
	add(lower("us", "semrules.us_per_check"))
	add(higher("fraction", "semrules.reject_rate"))

	add(lower("count", "verify.checks_per_req"))
	add(higher("fraction", "verify.reject_rate"))
	for _, st := range verifyStages {
		add(higher("count", "verify.rejected."+string(st)+"_per_req"))
	}
	add(higher("count", "verify.column_memo_hits_per_req"))
	add(lower("count", "verify.db_queries_per_req"))
	add(lower("us", "verify.replay_warm_us_p50", "verify.replay_warm_us_p95", "verify.replay_cold_us_p50"))

	add(lower("ms", "sqlexec.execute_gold_ms_p50"))
	add(lower("us", "sqlexec.exists_warm_us_p50", "sqlexec.exists_cold_us_p50"))
	add(lower("count", "sqlexec.joins_built"))
	add(higher("count", "sqlexec.streamed_exists_per_req"))
	add(lower("count", "sqlexec.fallback_exists_per_req"))
	add(higher("count", "sqlexec.index_hits_per_req"))
	add(higher("fraction", "sqlexec.prefix_hit_rate"))
	add(higher("count", "sqlexec.morsel_runs_per_req", "sqlexec.avg_morsel_workers"))

	add(lower("us", "storage.snapshot_us_p50", "storage.append_us_p50", "storage.snapshot_after_append_us_p50"))
	add(lower("MB", "storage.vector_mb", "storage.dict_mb"))

	add(lower("ms", "segment.persist_ms", "segment.load_ms"))
	add(lower("B", "segment.bytes_per_row"))

	add(lower("us", "service.overhead_us_p50"))
	add(lower("ms", "service.cold_pass_ms", "service.append_ms_p50", "service.warm_pass_ms", "service.post_append_pass_ms"))
	add(lower("ratio", "service.epoch_tax_ratio"))
	add(lower("count", "service.epochs_live", "service.epochs_retired", "service.join_paths"))
	add(lower("fraction", "service.ref_mismatch_frac"))

	add(lower("fraction", "runtime.gc_cpu_share"))
	add(lower("count", "runtime.gc_cycles_per_req", "runtime.mallocs_per_req"))

	add(lower("fraction", "trace.overhead_share"))
	return defs
}()

// measured is one metric value as the result line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a declaration
// table, so a metric that was declared but not measured (or the reverse)
// fails the run instead of silently going missing.
type metricSet map[string]float64
