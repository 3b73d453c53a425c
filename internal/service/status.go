package service

import (
	"os"
	"runtime"
	"time"

	"repro/internal/cellcache"
	"repro/internal/obs"
)

// StatusSnapshot is the canonical GET /v1/status payload: one JSON
// document carrying everything an operator console needs about a daemon
// — process identity, queue and executor occupancy, jobs by state, the
// active jobs with their stage progress, every cache tier with hit
// ratios, job-record health, per-stage latency quantiles, and the sampler's
// trailing time-series window. bdcoord serves the same snapshot with a
// fleet view appended (see shard.WorkerFleetStatus); bdtop renders it.
//
// Like every observability surface, Status is read-only and
// side-effect-free: serving it never touches a result byte.
type StatusSnapshot struct {
	Service       string    `json:"service"`
	PID           int       `json:"pid"`
	GoVersion     string    `json:"go_version"`
	Goroutines    int       `json:"goroutines"`
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Now           time.Time `json:"now"`

	Queue       QueueStatus      `json:"queue"`
	Jobs        JobsByState      `json:"jobs"`
	ActiveJobs  []ActiveJob      `json:"active_jobs,omitempty"`
	ResultCache CacheTierStatus  `json:"result_cache"`
	CellCache   *cellcache.Stats `json:"cell_cache,omitempty"`
	JobRecords  JobRecordsStatus `json:"job_records"`
	Stages      []StageLatency   `json:"stages,omitempty"`
	Window      *obs.Window      `json:"window,omitempty"`
}

// QueueStatus is queue and executor occupancy.
type QueueStatus struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	Workers  int `json:"workers"`
	Busy     int `json:"busy"`
}

// JobsByState counts retained job records per state.
type JobsByState struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

// of returns the counter of state s.
func (c *JobsByState) of(s State) *int {
	switch s {
	case StateQueued:
		return &c.Queued
	case StateRunning:
		return &c.Running
	case StateDone:
		return &c.Done
	case StateFailed:
		return &c.Failed
	default: // StateCanceled
		return &c.Canceled
	}
}

// ActiveJob is the status line of one non-terminal job.
type ActiveJob struct {
	ID         string     `json:"id"`
	State      State      `json:"state"`
	Stage      string     `json:"stage,omitempty"`
	CellsDone  int        `json:"cells_done"`
	CellsTotal int        `json:"cells_total"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
}

// StageLatency is one pipeline stage's estimated latency quantiles,
// computed from the bd_stage_duration_seconds histogram buckets.
type StageLatency struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// maxActiveJobs bounds the snapshot's active-job list; a fleet console
// does not need the full backlog, and /v1/jobs serves it anyway.
const maxActiveJobs = 64

// Status assembles the daemon's point-in-time snapshot. The pieces are
// individually consistent (each is read under its own lock) but not
// mutually atomic — a job may finish between the state counts and the
// active list — which is the right trade for a surface polled every
// couple of seconds.
func (m *Manager) Status() StatusSnapshot {
	now := time.Now()
	jobs := m.jobCounts()
	snap := StatusSnapshot{
		Service:       m.cfg.TraceService,
		PID:           os.Getpid(),
		GoVersion:     runtime.Version(),
		Goroutines:    runtime.NumGoroutine(),
		StartedAt:     m.startedAt,
		UptimeSeconds: now.Sub(m.startedAt).Seconds(),
		Now:           now,
		Queue: QueueStatus{
			Depth:    len(m.queue),
			Capacity: cap(m.queue),
			Workers:  m.cfg.Workers,
			Busy:     int(m.mx.busy.Value()),
		},
		Jobs:        jobs,
		ResultCache: m.cache.Stats(),
		JobRecords:  m.records.status(),
		Stages:      m.StageLatencies(),
	}
	for _, js := range m.List() {
		if js.State.terminal() {
			continue
		}
		snap.ActiveJobs = append(snap.ActiveJobs, ActiveJob{
			ID: js.ID, State: js.State, Stage: js.Stage,
			CellsDone: js.CellsDone, CellsTotal: js.CellsTotal,
			CreatedAt: js.CreatedAt, StartedAt: js.StartedAt,
		})
		if len(snap.ActiveJobs) >= maxActiveJobs {
			break
		}
	}
	if m.cfg.Cells != nil {
		cs := m.cfg.Cells.Stats()
		snap.CellCache = &cs
	}
	if m.cfg.Sampler != nil {
		w := m.cfg.Sampler.Window()
		snap.Window = &w
	}
	return snap
}

// StageLatencies estimates p50/p95/p99 per pipeline stage from the
// bd_stage_duration_seconds histogram — the same numbers the stats
// ticker logs, read from the same buckets.
func (m *Manager) StageLatencies() []StageLatency {
	var out []StageLatency
	m.mx.stageDuration.Each(func(labels []string, snap obs.HistogramSnapshot) {
		if len(labels) != 1 || snap.Count == 0 {
			return
		}
		q := snap.Quantiles(0.50, 0.95, 0.99)
		out = append(out, StageLatency{
			Stage: labels[0], Count: snap.Count,
			P50: q[0], P95: q[1], P99: q[2],
		})
	})
	return out
}

// StatusSeriesDefs is the manager-level time-series selection for the
// sampler behind /v1/status: queue depth and executor busy as levels,
// job completions as a rate, both cache tiers as hit ratios, and the
// aggregate stage latency p95. Daemons append their own (bdcoord adds
// shard.FleetSeriesDefs).
func StatusSeriesDefs() []obs.SeriesDef {
	return []obs.SeriesDef{
		{Name: "queue_depth", Kind: obs.KindLevel, Family: "bd_queue_depth"},
		{Name: "executor_busy", Kind: obs.KindLevel, Family: "bd_executor_busy"},
		{Name: "jobs_done_per_sec", Kind: obs.KindRate, Family: "bd_jobs_completed_total", Labels: []string{"done"}},
		{Name: "result_cache_hit_ratio", Kind: obs.KindRatio,
			Family: "bd_cache_hits_total", DenFamily: "bd_cache_requests_total"},
		{Name: "cellcache_hit_ratio", Kind: obs.KindRatio,
			Family: "bd_cellcache_hits_total", DenFamily: "bd_cellcache_requests_total"},
		{Name: "stage_p95_seconds", Kind: obs.KindQuantile, Family: "bd_stage_duration_seconds", Q: 0.95},
	}
}
