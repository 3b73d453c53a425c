package service

import (
	"repro/internal/obs"
)

// svcMetrics bundles the manager's obs instruments. Every Manager has
// one — when Config.Registry is nil the instruments land on a private
// registry nothing renders — so hot paths never branch on "metrics
// enabled". Counter storage is shared with the JSON surfaces
// (CacheTierStatus, JobStatus): /metrics and /v1/cache/stats read the same
// atomics and can never disagree.
type svcMetrics struct {
	jobsSubmitted *obs.CounterVec // outcome: queued | cache_hit | deduped
	jobsRejected  *obs.CounterVec // reason: queue_full | draining | invalid | record_write
	jobsCompleted *obs.CounterVec // state: done | failed | canceled
	jobDuration   *obs.HistogramVec
	stageDuration *obs.HistogramVec
	busy          *obs.Gauge // executors running a job: bd_executor_busy and Status's queue.busy
	recordWrites  *obs.Counter
	cache         *cacheMetrics
}

// cacheMetrics is the counter storage behind both CacheTierStatus and the
// bd_cache_* families.
type cacheMetrics struct {
	requests      *obs.Counter // every lookup, any outcome — hit-ratio denominator
	memHits       *obs.Counter
	diskHits      *obs.Counter
	misses        *obs.Counter
	stores        *obs.Counter
	evictions     *obs.Counter
	corrupt       *obs.Counter
	diskEvictions *obs.Counter // the result store's sweep counter
}

func newCacheMetrics(reg *obs.Registry) *cacheMetrics {
	hits := reg.CounterVec("bd_cache_hits_total",
		"Result-cache hits, by serving tier.", "tier")
	return &cacheMetrics{
		requests: reg.Counter("bd_cache_requests_total",
			"Result-cache lookups regardless of outcome (hit-ratio denominator)."),
		memHits:  hits.With("memory"),
		diskHits: hits.With("disk"),
		misses: reg.Counter("bd_cache_misses_total",
			"Result-cache lookups that found nothing in any tier."),
		stores: reg.Counter("bd_cache_stores_total",
			"Results written to the cache."),
		evictions: reg.Counter("bd_cache_evictions_total",
			"Entries displaced from the in-memory LRU tier (disk copies remain)."),
		corrupt: reg.Counter("bd_cache_corrupt_total",
			"Disk-tier entries deleted because their bytes failed JSON validation."),
		diskEvictions: reg.Counter("bd_cache_disk_evictions_total",
			"Results deleted from the disk tier by its entry-bound sweep (the job re-executes on resubmission)."),
	}
}

func newSvcMetrics(reg *obs.Registry) *svcMetrics {
	return &svcMetrics{
		jobsSubmitted: reg.CounterVec("bd_jobs_submitted_total",
			"Accepted job submissions, by outcome (queued, cache_hit, deduped).",
			"outcome"),
		jobsRejected: reg.CounterVec("bd_jobs_rejected_total",
			"Refused job submissions, by reason (queue_full, draining, invalid, record_write).",
			"reason"),
		jobsCompleted: reg.CounterVec("bd_jobs_completed_total",
			"Jobs reaching a terminal state, by state (done, failed, canceled).",
			"state"),
		jobDuration: reg.HistogramVec("bd_job_duration_seconds",
			"Job wall-clock time from start to terminal state, by final state.",
			obs.WideBuckets, "state"),
		stageDuration: reg.HistogramVec("bd_stage_duration_seconds",
			"Pipeline stage wall-clock time, by stage.",
			obs.WideBuckets, "stage"),
		busy: reg.Gauge("bd_executor_busy",
			"Jobs currently executing (executor utilization = busy / workers)."),
		recordWrites: reg.Counter("bd_job_record_writes_total",
			"Job records written (fsynced) to <data-dir>/jobs: one when a job is queued, one when it ends."),
		cache: newCacheMetrics(reg),
	}
}

// registerGauges binds the render-time gauges to a live manager. Called
// once from New, after the manager's queue and cache exist.
func (mx *svcMetrics) registerGauges(reg *obs.Registry, m *Manager) {
	reg.GaugeFunc("bd_queue_depth",
		"Jobs waiting in the queue for an executor.",
		func() float64 { return float64(len(m.queue)) })
	reg.Gauge("bd_queue_capacity",
		"Capacity of the job queue.").Set(float64(cap(m.queue)))
	reg.Gauge("bd_executor_workers",
		"Size of the executor pool.").Set(float64(m.cfg.Workers))
	reg.GaugeFunc("bd_cache_entries",
		"Entries currently held by the in-memory LRU tier.",
		func() float64 { return float64(m.cache.Entries()) })
	reg.GaugeFuncVec("bd_jobs", "Job records currently retained, by state.", []string{"state"},
		func(set func(float64, ...string)) {
			c := m.jobCounts()
			for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
				set(float64(*c.of(st)), string(st))
			}
		})
}

// jobCounts scans the record map once and counts jobs by state — the
// one count behind Status, the bd_jobs family (one scan per render) and
// the daemons' stats line. Render-time only; the map is bounded by
// MaxJobs.
func (m *Manager) jobCounts() JobsByState {
	var c JobsByState
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		*c.of(j.state)++
		j.mu.Unlock()
	}
	return c
}
