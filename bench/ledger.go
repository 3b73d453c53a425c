package main

import (
	"fmt"
	"sync"
	"time"
)

// runLedger is the traced pass: the probes, then every workload's traced
// part. Each per-layer row is defined by exactly one part, and a traced
// run reports every row, so every part runs on every traced run; the
// workload the run names gets the whole window for its part and the others
// run their minimum op count. A full set names none and makes one traced
// pass with the window on every part. The shapes (grid, matrix, job specs)
// are the same either way, so the rows of two traced runs compare
// whichever workload each named.
func runLedger(e *env, named string) (*opLog, metricSet, error) {
	o, m := &opLog{}, metricSet{}
	window := func(name string) time.Duration {
		if named == "" || name == named {
			return e.window()
		}
		return 0
	}
	e.logf("ledger: probes")
	if err := runProbes(e, o, m); err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	e.logf("ledger: paper-grid")
	if err := ledgerPaperGrid(e, o, m, window("paper-grid")); err != nil {
		return nil, nil, err
	}
	e.logf("ledger: analysis-wide")
	if err := ledgerAnalysisWide(e, o, m, window("analysis-wide")); err != nil {
		return nil, nil, err
	}
	e.logf("ledger: fleets")
	if err := ledgerFleets(e, o, m, window); err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, nil, err
	}
	m["proc.peak_rss_mb"] = rss
	return o, m, nil
}

// httpRequests counts the requests a daemon served, leaving out the ones
// the harness and the health prober make to look at it.
func httpRequests(s samples) float64 {
	return s.sum("bd_http_requests_total") -
		s.sum("bd_http_requests_total", `path="/metrics"`) -
		s.sum("bd_http_requests_total", `path="/healthz"`)
}

// jobLog collects finished jobs from concurrent clients.
type jobLog struct {
	mu   sync.Mutex
	jobs []jobResult
}

func (l *jobLog) add(r jobResult) {
	l.mu.Lock()
	l.jobs = append(l.jobs, r)
	l.mu.Unlock()
}

func (l *jobLog) latencies() []float64 {
	out := make([]float64, len(l.jobs))
	for i, r := range l.jobs {
		out[i] = ms(r.latency)
	}
	return out
}

// ledgerFleets is the traced part of the three fleet workloads. The
// counter and CPU rows come from an untraced fleet running fleet-small-
// jobs exactly as the end-to-end run does; the span rows from a second
// fleet with the span recorder on, which then also runs fleet-overlap's
// and fleet-replay's jobs.
func ledgerFleets(e *env, o *opLog, m metricSet, window func(string) time.Duration) error {
	small := window("fleet-small-jobs") / 2 // half on each fleet

	// --- untraced fleet: counters, CPU, memory, and the tax ratio -------
	u, err := warmFleet(e, false)
	if err != nil {
		return fmt.Errorf("untraced fleet: %w", err)
	}
	defer u.stop(true) // error paths; the normal path stops it below
	before, err := u.usage(e.ctx)
	if err != nil {
		return err
	}
	var plain jobLog
	uWindow, specs, datas := smallJobs(e, o, u, small, oracleJobs, plain.add)
	after, err := u.usage(e.ctx)
	if err != nil {
		return err
	}
	jobs := float64(len(plain.jobs))
	units := after.coord.sum("bd_worker_units_done_total") - before.coord.sum("bd_worker_units_done_total")
	if jobs == 0 || units == 0 {
		return fmt.Errorf("untraced fleet finished %v jobs and %v units", jobs, units)
	}
	delta := func(a, b samples, family string) float64 { return a.sum(family) - b.sum(family) }
	m["coord.cpu_s_per_job"] = (after.coordCPU - before.coordCPU) / jobs
	m["worker.cpu_s_per_job"] = (after.workerCPU - before.workerCPU) / jobs
	m["http.coord_requests_per_job"] = (httpRequests(after.coord) - httpRequests(before.coord)) / jobs
	m["http.worker_requests_per_unit"] = (httpRequests(after.workers) - httpRequests(before.workers)) / units
	m["service.journal_appends_per_job"] = delta(after.coord, before.coord, "bd_journal_appends_total") / jobs
	m["worker.journal_appends_per_unit"] = delta(after.workers, before.workers, "bd_journal_appends_total") / units
	m["cellcache.coord_stores_per_job"] = delta(after.coord, before.coord, "bd_cellcache_stores_total") / jobs
	if m["coord.peak_rss_mb"], err = peakRSSMB(u.coord.cmd.Process.Pid); err != nil {
		return err
	}
	for _, w := range u.workers {
		rss, err := peakRSSMB(w.cmd.Process.Pid)
		if err != nil {
			return err
		}
		m["worker.peak_rss_mb"] = max(m["worker.peak_rss_mb"], rss)
	}
	u.stop(o.failed > 0)
	if o.failed > 0 {
		return nil // the failures are the result; the rows below need working jobs
	}
	// The same specs through an in-process manager: byte-identity oracle
	// and the base of the distribution tax (ROADMAP 2b).
	base := verifyInproc(e, o, "fleet-small-jobs", specs, datas)
	if len(base) > 0 {
		inprocPerS := float64(len(base)) / sum(secondsAll(base))
		m["fleet.tax_ratio"] = inprocPerS / (jobs / uWindow.Seconds())
	}

	// --- traced fleet: the daemons' own spans -------------------------
	t, err := warmFleet(e, true)
	if err != nil {
		return fmt.Errorf("traced fleet: %w", err)
	}
	defer func() { t.stop(o.failed > 0) }()
	var traced jobLog
	smallJobs(e, o, t, small, oracleJobs, traced.add)
	if err := smallJobSpans(e, o, m, t, traced.jobs); err != nil {
		return err
	}
	m["obs.traced_over_untraced"] = median(traced.latencies()) / median(plain.latencies())

	// The small jobs above left their columns in this fleet's cell cache,
	// and job A shares four workloads with them: its cycles run on seeds
	// no small job used, so that A stays cold.
	overlapSeed := e.seed + seedStride/2
	if err := ledgerOverlap(e, o, m, t, overlapSeed, window("fleet-overlap")); err != nil {
		return err
	}
	return ledgerReplay(e, o, m, t, overlapSeed, window("fleet-replay"))
}

func secondsAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// smallJobSpans fetches each traced job's spans and fills the shard,
// worker and coordinator rows: medians over jobs for per-job layers,
// medians over all units for per-unit ones.
func smallJobSpans(e *env, o *opLog, m metricSet, f *fleet, jobs []jobResult) error {
	var queueWait, preplan, plan, probe, merge, analysis, finish, ratios, units []float64
	var dispatch, exec, validate, gap, overhead, workerJob, workerChar []float64
	var jobWall, retries float64
	for _, j := range jobs {
		x, err := f.c.Trace(e.ctx, j.id)
		if err != nil {
			return err
		}
		t, err := readJobTrace(x)
		if err != nil {
			return err
		}
		queueWait = append(queueWait, t.queueWait)
		preplan = append(preplan, t.preplan)
		plan = append(plan, t.plan)
		probe = append(probe, t.cellprobe)
		merge = append(merge, t.merge)
		analysis = append(analysis, t.analysis)
		finish = append(finish, t.finish)
		ratios = append(ratios, t.sumRatio())
		units = append(units, float64(t.units))
		dispatch = append(dispatch, t.dispatch...)
		exec = append(exec, t.exec...)
		validate = append(validate, t.validate...)
		gap = append(gap, t.unitGap...)
		overhead = append(overhead, t.execOverhead...)
		workerJob = append(workerJob, t.workerJob...)
		workerChar = append(workerChar, t.workerCharacterize...)
		jobWall += t.job
		retries += float64(t.retries)
	}
	if len(workerChar) == 0 {
		return fmt.Errorf("the traced jobs carry no worker spans")
	}
	m["service.queue_wait_ms"] = median(queueWait)
	m["shard.preplan_ms"] = median(preplan)
	m["shard.plan_ms"] = median(plan)
	m["shard.cellprobe_ms"] = median(probe)
	m["shard.merge_ms"] = median(merge)
	m["coord.analysis_ms"] = median(analysis)
	m["service.finish_ms"] = median(finish)
	m["shard.dispatch_ms_per_unit"] = median(dispatch)
	m["shard.exec_ms_per_unit"] = median(exec)
	m["shard.validate_ms_per_unit"] = median(validate)
	m["shard.unit_gap_ms_per_unit"] = median(gap)
	m["shard.exec_overhead_ms_per_unit"] = median(overhead)
	m["worker.job_ms_per_unit"] = median(workerJob)
	m["worker.characterize_ms_per_unit"] = median(workerChar)
	m["shard.units_per_job"] = median(units)
	m["shard.retries_per_job"] = retries / float64(len(jobs))
	m["fleet.coord_overhead_ratio"] = 1 - sum(workerChar)/(jobWall*fleetWorkers)
	ratio := median(ratios)
	m["shard.span_sum_ratio"] = ratio
	if ratio < 0.90 || ratio > 1.10 {
		o.fail("fleet-small-jobs: the coordinator's layers sum to %.3f of its job span (want 0.90–1.10)", ratio)
	}
	return nil
}

// ledgerOverlap runs fleet-overlap's cycles one job at a time between
// scrapes, so each job's cell-cache traffic is its own.
func ledgerOverlap(e *env, o *opLog, m metricSet, f *fleet, seed uint64, window time.Duration) error {
	c := &overlapJobs{e: e, o: o, f: f, seed: seed, label: "ledger/fleet-overlap"}
	var cold, overlap, probe, coldStores, hits, stores, dispatched []float64
	var scrapeErr error
	cellTraffic := func(job func() (jobResult, error)) (r jobResult, dStores, dHits float64, err error) {
		s0, err := f.coord.scrape(e.ctx)
		if err != nil {
			scrapeErr = err
			return
		}
		if r, err = job(); err != nil {
			return
		}
		s1, err := f.coord.scrape(e.ctx)
		if err != nil {
			scrapeErr = err
			return
		}
		return r, s1.sum("bd_cellcache_stores_total") - s0.sum("bd_cellcache_stores_total"),
			s1.sum("bd_cellcache_hits_total") - s0.sum("bd_cellcache_hits_total"), nil
	}
	closedLoop(e, o, 1, window, 2, func(i int) (time.Duration, error) {
		cycle, variant := i/variantsPerCycle, i%variantsPerCycle
		if variant == 0 {
			a, st, _, err := cellTraffic(func() (jobResult, error) { return c.cold(cycle) })
			if err != nil {
				return 0, err
			}
			cold = append(cold, ms(a.latency))
			coldStores = append(coldStores, st)
		}
		b, st, h, err := cellTraffic(func() (jobResult, error) { return c.variant(cycle, variant) })
		if err != nil {
			return 0, err
		}
		x, err := f.c.Trace(e.ctx, b.id)
		if err != nil {
			return 0, err
		}
		t, err := readJobTrace(x)
		if err != nil {
			return 0, err
		}
		overlap = append(overlap, ms(b.latency))
		stores, hits = append(stores, st), append(hits, h)
		probe = append(probe, t.cellprobe)
		dispatched = append(dispatched, float64(t.dispatched))
		return b.latency, nil
	})
	if scrapeErr != nil {
		return scrapeErr
	}
	if len(overlap) == 0 {
		return nil // the failed ops are the result
	}
	m["fleet.cold_job_ms"] = median(cold)
	m["fleet.overlap_job_ms"] = median(overlap)
	m["shard.overlap_cellprobe_ms"] = median(probe)
	m["cellcache.coord_stores_per_cold_job"] = median(coldStores)
	m["cellcache.coord_stores_per_overlap_job"] = median(stores)
	m["cellcache.coord_hits_per_overlap_job"] = median(hits)
	m["shard.dispatched_units_per_overlap_job"] = median(dispatched)
	if o.failed == 0 {
		verifyInproc(e, o, "fleet-overlap", c.specs, c.datas)
	}
	return nil
}

// ledgerReplay resubmits a finished job and reads what one replay costs
// the coordinator in requests and result-cache reads.
func ledgerReplay(e *env, o *opLog, m metricSet, f *fleet, seed uint64, window time.Duration) error {
	spec, err := coldSpec(e, seed)
	if err != nil {
		return err
	}
	first, err := f.runJob(e.ctx, spec) // ledgerOverlap's first A: already cached
	if err != nil {
		return fmt.Errorf("fleet-replay: %w", err)
	}
	r := &replayFleet{f: f, spec: spec, cold: first}
	before, err := f.coord.scrape(e.ctx)
	if err != nil {
		return err
	}
	var lat []float64
	closedLoop(e, o, 1, window, 10, func(int) (time.Duration, error) {
		d, err := r.replay(e.ctx)
		if err == nil {
			lat = append(lat, ms(d))
		}
		return d, err
	})
	after, err := f.coord.scrape(e.ctx)
	if err != nil {
		return err
	}
	if len(lat) == 0 {
		return nil
	}
	n := float64(len(lat))
	m["fleet.replay_job_ms"] = median(lat)
	m["service.result_cache_hits_per_replay"] = (after.sum("bd_cache_hits_total") - before.sum("bd_cache_hits_total")) / n
	m["http.coord_requests_per_replay"] = (httpRequests(after) - httpRequests(before)) / n
	return nil
}
