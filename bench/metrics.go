package main

import "strings"

// metricDef is one row of the ledger. BENCHMARK.json repeats name, unit,
// direction and bound; a self-test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
	// Exact marks a per-layer value that repeats exactly for a given seed
	// (a count or a modelled statistic): two runs of one commit must agree
	// on it to the last digit, and -compare says so when they do not.
	Exact bool
	// Moves names the end-to-end metric and workload the row should move
	// (README.md has the full prediction sheet).
	Moves string
}

// isTime reports whether the metric is a duration, whatever it is per.
func (d metricDef) isTime() bool {
	unit, _, _ := strings.Cut(d.Unit, "/")
	return unit == "ns" || unit == "us" || unit == "ms" || unit == "s"
}

// Every workload is a closed loop of one kind of operation that ends in
// result bytes, so every workload reports the same numbers. What an
// operation is differs per workload (workloads.go says which).
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// opTail is the latency tail of a full set: the highest percentile with at
// least ten samples beyond it, over the ops of all the set's runs of a
// workload. One run has too few ops for one (7 on paper-grid), and
// BENCHMARK.json lists only what every single run reports, so it is a row
// of the set and of -compare alone.
var opTail = metricDef{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25}

const (
	onGrid    = "op_p50_ms, ops_per_s on paper-grid; about half as much on fleet-small-jobs and fleet-overlap"
	onWide    = "op_p50_ms on analysis-wide only"
	onSmall   = "op_p50_ms, ops_per_s on fleet-small-jobs; then fleet-overlap"
	onOverlap = "op_p50_ms on fleet-overlap"
	onReplay  = "op_p50_ms on fleet-replay"
	noMove    = "identical across any change that does not declare a change of simulated bits"
)

// perLayer lists the traced-pass metrics, named <module>.<metric>.
var perLayer = []metricDef{
	// Probes: direct calls into public functions on fixed inputs.
	{Name: "trace.gen_ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: onGrid},
	{Name: "sim.exec_ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: onGrid},
	{Name: "sim.run_ns_per_instr", Unit: "ns/instr", Better: "lower", Moves: onGrid},
	{Name: "sim.new_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on fleet-small-jobs (one machine built per one-cell unit), not paper-grid"},
	{Name: "sim.reset_ms", Unit: "ms", Better: "lower", Moves: onGrid},
	{Name: "sim.snapshot_us", Unit: "us", Better: "lower", Moves: onGrid},
	{Name: "sim.cache_l1d_ns_per_access", Unit: "ns/access", Better: "lower", Moves: onGrid},
	{Name: "sim.cache_l3_ns_per_access", Unit: "ns/access", Better: "lower", Moves: onGrid},
	{Name: "sim.tlb_ns_per_translate", Unit: "ns/access", Better: "lower", Moves: onGrid},
	{Name: "sim.branch_ns_per_update", Unit: "ns/access", Better: "lower", Moves: onGrid},
	{Name: "perf.measure_us", Unit: "us", Better: "lower", Moves: onGrid},
	{Name: "sim.ipc", Unit: "instr/cycle", Better: "higher", Exact: true, Moves: noMove},
	{Name: "sim.l2_mpki", Unit: "1/kinstr", Better: "lower", Exact: true, Moves: noMove},
	{Name: "sim.l3_mpki", Unit: "1/kinstr", Better: "lower", Exact: true, Moves: noMove},
	{Name: "sim.dtlb_mpki", Unit: "1/kinstr", Better: "lower", Exact: true, Moves: noMove},
	{Name: "sim.branch_mpki", Unit: "1/kinstr", Better: "lower", Exact: true, Moves: noMove},
	{Name: "workloads.suite_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "cluster.reduce_us", Unit: "us", Better: "lower", Moves: onSmall},
	{Name: "cluster.cellkey_us", Unit: "us", Better: "lower", Moves: onSmall},
	{Name: "shard.plan_us", Unit: "us", Better: "lower", Moves: onSmall},
	{Name: "benchio.encode_obs_us", Unit: "us", Better: "lower", Moves: onSmall},
	{Name: "benchio.decode_obs_us", Unit: "us", Better: "lower", Moves: onSmall},
	{Name: "benchio.obs_bytes_per_cell", Unit: "bytes", Better: "lower", Exact: true, Moves: onSmall},
	{Name: "fsio.write_sync_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "cellcache.put_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "cellcache.get_hit_us", Unit: "us", Better: "lower", Moves: onOverlap},
	{Name: "cellcache.get_miss_us", Unit: "us", Better: "lower", Moves: onSmall},
	{Name: "service.stub_job_ms", Unit: "ms", Better: "lower", Moves: onReplay},

	// paper-grid under core.StageTimer and per-cell Progress timestamps.
	{Name: "core.characterize_s", Unit: "s", Better: "lower", Moves: onGrid},
	{Name: "core.analysis_ms", Unit: "ms", Better: "lower", Moves: "nothing visibly: under 1% of paper-grid"},
	{Name: "core.seq_op_s", Unit: "s", Better: "lower", Moves: onGrid},
	{Name: "core.layer_sum_ratio", Unit: "ratio", Better: "higher", Moves: "a check: the run fails outside 0.95-1.05"},
	{Name: "cluster.cell_ms_p50", Unit: "ms", Better: "lower", Moves: onGrid},
	{Name: "cluster.cell_ms_max", Unit: "ms", Better: "lower", Moves: "op_p50_ms on paper-grid: the slowest cell sets the tail of the parallel grid"},
	{Name: "cluster.par_efficiency", Unit: "ratio", Better: "higher", Moves: "op_p50_ms on paper-grid, not core.seq_op_s"},
	{Name: "fidelity.best_k", Unit: "count", Better: "lower", Exact: true, Moves: "the answer itself: 12 is the scan ceiling, the paper finds 7"},
	{Name: "fidelity.num_pcs", Unit: "count", Better: "lower", Exact: true, Moves: "the answer itself"},
	{Name: "fidelity.variance_retained", Unit: "ratio", Better: "higher", Exact: true, Moves: "the answer itself"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "memory of the harness process over the whole traced pass"},

	// analysis-wide under core.StageTimer.
	{Name: "pca.fit_ms", Unit: "ms", Better: "lower", Moves: onWide},
	{Name: "hier.cluster_ms", Unit: "ms", Better: "lower", Moves: onWide},
	{Name: "kmeans.bestk_ms", Unit: "ms", Better: "lower", Moves: onWide},
	{Name: "kmeans.run_k7_ms", Unit: "ms", Better: "lower", Moves: onWide},
	{Name: "core.select_ms", Unit: "ms", Better: "lower", Moves: onWide},
	{Name: "benchio.encode_analysis_ms", Unit: "ms", Better: "lower", Moves: onWide},
	{Name: "benchio.analysis_bytes", Unit: "bytes", Better: "lower", Exact: true, Moves: onWide},
	{Name: "analysis.layer_sum_ratio", Unit: "ratio", Better: "higher", Moves: "a check: the run fails outside 0.95-1.05"},

	// fleet-small-jobs on an untraced fleet: process and counter deltas.
	{Name: "coord.cpu_s_per_job", Unit: "s", Better: "lower", Moves: "ops_per_s on fleet-small-jobs by more than its latency share: 3 daemons and 2 clients share 2 cores"},
	{Name: "worker.cpu_s_per_job", Unit: "s", Better: "lower", Moves: "ops_per_s on fleet-small-jobs"},
	{Name: "coord.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "memory only"},
	{Name: "worker.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "memory only"},
	{Name: "http.coord_requests_per_job", Unit: "count", Better: "lower", Exact: true, Moves: onSmall},
	{Name: "http.worker_requests_per_unit", Unit: "count", Better: "lower", Exact: true, Moves: onSmall},
	{Name: "service.journal_appends_per_job", Unit: "count", Better: "lower", Exact: true, Moves: onSmall},
	{Name: "worker.journal_appends_per_unit", Unit: "count", Better: "lower", Exact: true, Moves: onSmall},
	{Name: "cellcache.coord_stores_per_job", Unit: "count", Better: "lower", Exact: true, Moves: onSmall},
	{Name: "fleet.tax_ratio", Unit: "ratio", Better: "lower", Moves: "ops_per_s on fleet-small-jobs: in-process jobs/s over fleet jobs/s"},

	// fleet-small-jobs on a traced fleet: the daemons' own spans.
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.preplan_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.plan_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.cellprobe_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.dispatch_ms_per_unit", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.exec_ms_per_unit", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.validate_ms_per_unit", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.unit_gap_ms_per_unit", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.exec_overhead_ms_per_unit", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "shard.merge_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "coord.analysis_ms", Unit: "ms", Better: "lower", Moves: "nothing visibly: kmax 3 on 4 rows"},
	{Name: "service.finish_ms", Unit: "ms", Better: "lower", Moves: onSmall},
	{Name: "worker.job_ms_per_unit", Unit: "ms", Better: "lower", Moves: "op_p50_ms on fleet-small-jobs by its tail, not its median: a job waits for the slowest of its 8 units"},
	{Name: "worker.characterize_ms_per_unit", Unit: "ms", Better: "lower", Moves: onGrid},
	{Name: "shard.units_per_job", Unit: "count", Better: "lower", Exact: true, Moves: onSmall},
	{Name: "shard.retries_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "0 on a healthy fleet"},
	{Name: "shard.span_sum_ratio", Unit: "ratio", Better: "higher", Moves: "a check: the run fails outside 0.90-1.10"},
	{Name: "fleet.coord_overhead_ratio", Unit: "ratio", Better: "lower", Moves: onSmall},
	{Name: "obs.traced_over_untraced", Unit: "ratio", Better: "lower", Moves: "the cost of the span recorder: traced over untraced job p50"},

	// fleet-overlap and fleet-replay on the traced fleet.
	{Name: "fleet.cold_job_ms", Unit: "ms", Better: "lower", Moves: "fleet-overlap's untimed cold job; moves with fleet-small-jobs"},
	{Name: "fleet.overlap_job_ms", Unit: "ms", Better: "lower", Moves: onOverlap},
	{Name: "shard.overlap_cellprobe_ms", Unit: "ms", Better: "lower", Moves: onOverlap},
	{Name: "cellcache.coord_stores_per_cold_job", Unit: "count", Better: "lower", Exact: true, Moves: "fleet.cold_job_ms"},
	{Name: "cellcache.coord_stores_per_overlap_job", Unit: "count", Better: "lower", Exact: true, Moves: onOverlap},
	{Name: "cellcache.coord_hits_per_overlap_job", Unit: "count", Better: "higher", Exact: true, Moves: onOverlap},
	{Name: "shard.dispatched_units_per_overlap_job", Unit: "count", Better: "lower", Exact: true, Moves: onOverlap},
	{Name: "fleet.replay_job_ms", Unit: "ms", Better: "lower", Moves: onReplay},
	{Name: "service.result_cache_hits_per_replay", Unit: "count", Better: "higher", Exact: true, Moves: onReplay},
	{Name: "http.coord_requests_per_replay", Unit: "count", Better: "lower", Exact: true, Moves: onReplay},
}

// metricValue is one reported number, in the shape the result line wants.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run, keyed by metric name.
type metricSet map[string]float64

// render gives every metric of defs its value with the unit the table
// fixes, and names the ones the run did not produce.
func (m metricSet) render(defs []metricDef) (out map[string]metricValue, missing []string) {
	out = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
