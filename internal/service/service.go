package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchio"
	"repro/internal/bigdata/cluster"
	"repro/internal/cellcache"
	"repro/internal/core"
	"repro/internal/obs"
)

// State is a job lifecycle state.
type State string

// Job lifecycle: queued → running → done | failed | canceled. Jobs served
// from the result cache are born done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry in a job's progress stream. Seq is 1-based and
// strictly increasing; the stream replays from the start for late
// subscribers and ends with a terminal event (done/error/state=canceled).
type Event struct {
	Seq        int    `json:"seq"`
	JobID      string `json:"job_id,omitempty"`
	Type       string `json:"type"` // "state" | "stage" | "progress" | "done" | "error"
	State      State  `json:"state,omitempty"`
	Stage      string `json:"stage,omitempty"`
	Done       int    `json:"done,omitempty"`
	Total      int    `json:"total,omitempty"`
	ResultHash string `json:"result_hash,omitempty"`
	Error      string `json:"error,omitempty"`
}

// JobStatus is the externally visible snapshot of a job. CacheHit on a
// Submit response means that submission was served from the result cache
// (or deduplicated against an already-completed identical job) without
// any computation.
type JobStatus struct {
	ID         string     `json:"id"`
	State      State      `json:"state"`
	CacheHit   bool       `json:"cache_hit"`
	Stage      string     `json:"stage,omitempty"`
	CellsDone  int        `json:"cells_done"`
	CellsTotal int        `json:"cells_total"`
	ResultHash string     `json:"result_hash,omitempty"`
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Spec       JobSpec    `json:"spec"`
}

// job is the manager-internal job record.
type job struct {
	id   string
	spec JobSpec // normalized

	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	state      State
	cacheHit   bool
	stage      string
	cellsDone  int
	cellsTotal int
	lastEmit   int // cells reported in the event stream so far
	resultHash string
	errMsg     string
	created    time.Time
	started    time.Time
	finished   time.Time
	events     []Event
	more       chan struct{} // closed and replaced on every append
	done       bool          // terminal event emitted

	// Tracing identity, immutable once the job is visible: the trace ID
	// (the job ID, or one propagated from an upstream coordinator via
	// X-BD-Trace), the upstream parent span, and the pre-allocated ID of
	// this job's root span — children reference it before the root span
	// itself is sealed. rootSpan (under mu) is the live handle while the
	// job runs, so journal appends can annotate it.
	traceID    string
	parentSpan string
	rootSpanID string
	rootSpan   *obs.SpanHandle

	// userCancel marks an explicit Manager.Cancel, distinguishing it from
	// a shutdown cancelation (the root context closing). Only the former
	// journals a terminal cancel record; a shutdown-canceled job must stay
	// non-terminal in the journal so the next incarnation re-adopts it.
	userCancel bool
	// shutdownCanceled marks a job whose run was cut short by shutdown:
	// terminal in memory (subscribers see a canceled event) but treated as
	// live by journal compaction and eviction, so its submit record and
	// unit progress survive to the next incarnation.
	shutdownCanceled bool
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, CacheHit: j.cacheHit,
		Stage: j.stage, CellsDone: j.cellsDone, CellsTotal: j.cellsTotal,
		ResultHash: j.resultHash, Error: j.errMsg,
		CreatedAt: j.created, Spec: j.spec,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// emit appends an event and wakes subscribers. Callers hold j.mu.
func (j *job) emitLocked(ev Event) {
	ev.Seq = len(j.events) + 1
	ev.JobID = j.id
	j.events = append(j.events, ev)
	close(j.more)
	j.more = make(chan struct{})
	if ev.Type == "done" || ev.Type == "error" ||
		(ev.Type == "state" && State(ev.State) == StateCanceled) {
		j.done = true
	}
}

func (j *job) emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(ev)
}

// EventsSince returns a copy of the event history from index from, a
// channel closed when more events arrive, and whether the stream has
// ended. Subscribers loop: drain, then wait on the channel.
func (j *job) EventsSince(from int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	evs := make([]Event, len(j.events)-from)
	copy(evs, j.events[from:])
	return evs, j.more, j.done
}

// ExecuteFunc computes the canonical result bytes for a normalized spec,
// reporting progress through the job's event stream. The manager hashes
// and caches whatever it returns, so implementations must be
// deterministic: equal specs must yield identical bytes.
type ExecuteFunc func(ctx context.Context, spec JobSpec, progress core.Progress) ([]byte, error)

// Config configures a Manager.
type Config struct {
	// DataDir roots the on-disk result store at <DataDir>/results (one
	// <job-id>.json per result, bounded by write recency); empty disables
	// the disk tier (results then live only in the in-memory LRU).
	DataDir string
	// Workers bounds concurrently executing jobs (default 1; each job
	// internally parallelizes its measurement grid).
	Workers int
	// QueueDepth bounds jobs waiting for an executor (default 64).
	QueueDepth int
	// CacheEntries bounds the in-memory LRU result tier (default 256).
	CacheEntries int
	// MaxJobs bounds the in-memory job-record map (default 4096): beyond
	// it the oldest terminal (done/failed/canceled) records are evicted.
	// Live jobs are never evicted, and evicted done jobs remain servable
	// through the result cache.
	MaxJobs int
	// Parallelism is forwarded to each job's characterization grid and
	// analysis stage (0 = GOMAXPROCS). It never affects results.
	Parallelism int
	// JournalPath, when set, enables the persistent job journal: job
	// lifecycle records are appended as NDJSON and replayed on startup,
	// so terminal job metadata (including done-job → result-hash
	// mappings) survives restarts.
	JournalPath string
	// CellDelay, when positive, sleeps this long after every completed
	// characterization grid cell — an artificial throttle for
	// heterogeneous-fleet and fault testing (bdservd -throttle-cell).
	// Purely an execution knob: it slows the measurement loop without
	// touching any result byte.
	CellDelay time.Duration
	// CharacterizeOnly restricts the daemon to observation-matrix jobs
	// (Mode == ModeObservations) — the worker role in a sharded
	// deployment, where analysis runs coordinator-side.
	CharacterizeOnly bool
	// Cells, when set, is the daemon's cell cache: a content-addressed
	// store of characterization-grid columns (one workload on one
	// absolute node, all runs — see internal/cellcache). The in-process
	// executor consults it inside the measurement grid, so overlapping
	// suites recompute only the columns they do not share; Status reports
	// its counters either way (a coordinator's executor probes the same
	// store). Purely an accelerator: cached and recomputed results are
	// byte-identical. Nil disables it.
	Cells *cellcache.Store
	// TraceBuffer bounds each job's span ring in the tracing flight
	// recorder (-trace-buffer): 0 uses the default (2048 spans per job),
	// negative disables tracing entirely. Tracing is observational only —
	// result bytes are identical either way.
	TraceBuffer int
	// TraceService tags emitted spans with the owning process name
	// ("bdservd", "bdcoord"); default "service".
	TraceService string
	// Execute overrides the local pipeline executor — the hook through
	// which bdcoord turns a Manager into a shard coordinator while
	// reusing its queue, cache, journal and event plumbing. Nil runs
	// jobs in-process.
	Execute ExecuteFunc
	// Registry receives the manager's metrics (queue depth, jobs by
	// state, cache/journal counters, job and stage duration histograms)
	// and backs the handler's GET /metrics. Nil uses a private registry:
	// instruments still work, nothing renders them.
	Registry *obs.Registry
	// Sampler, when set, contributes its trailing time-series window to
	// GET /v1/status. The manager never starts or stops it — the owning
	// daemon drives the tick (see obs.Sampler.Start).
	Sampler *obs.Sampler
	// Logger receives structured job-lifecycle and journal log lines,
	// each tagged with the job ID. Nil discards them.
	Logger *slog.Logger
}

// ErrQueueFull is returned by Submit when the job queue is at capacity.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned by Submit once Drain has begun: the daemon is
// shutting down and admits no new work.
var ErrDraining = errors.New("service: draining for shutdown")

// Manager owns the job queue, the executor pool and the result cache.
type Manager struct {
	cfg    Config
	cache  *resultCache
	reg    *obs.Registry
	mx     *svcMetrics
	log    *slog.Logger
	tracer *obs.FlightRecorder // nil when tracing is disabled

	root      context.Context
	stop      context.CancelFunc
	wg        sync.WaitGroup
	startedAt time.Time

	draining atomic.Bool

	jmu     sync.Mutex // serializes journal appends
	journal *journal

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing
	queue chan *job
}

// New starts a manager with cfg.Workers executor goroutines, replaying
// the job journal (if configured) so terminal job records survive
// restarts. Non-terminal journaled jobs — ones a previous incarnation
// died holding — are re-adopted: re-queued as if freshly submitted. A
// sharded executor recovers their finished work from its own cell cache,
// not from the journal.
func New(cfg Config) (*Manager, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxJobs < 1 {
		cfg.MaxJobs = 4096
	}
	if cfg.TraceService == "" {
		cfg.TraceService = "service"
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	mx := newSvcMetrics(reg)
	cache, err := newResultCache(cfg.CacheEntries, cfg.DataDir, mx.cache)
	if err != nil {
		return nil, err
	}
	root, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		cache:     cache,
		reg:       reg,
		mx:        mx,
		log:       logger,
		root:      root,
		stop:      stop,
		startedAt: time.Now(),
		jobs:      make(map[string]*job),
		queue:     make(chan *job, cfg.QueueDepth),
	}
	mx.registerGauges(reg, m)
	if cfg.TraceBuffer >= 0 {
		buf := cfg.TraceBuffer
		if buf == 0 {
			buf = 2048
		}
		m.tracer = obs.NewFlightRecorder(cfg.TraceService, cfg.MaxJobs, buf)
		// Every completed span is journaled, so the traces of re-adopted
		// jobs survive a coordinator crash along with their unit progress.
		m.tracer.Sink = func(jobID string, sp obs.Span) {
			m.journalAppendSync(journalRecord{TS: sp.End, Type: "span", ID: jobID, Span: &sp})
		}
	}
	if cfg.JournalPath != "" {
		jl, replayed, err := openJournal(cfg.JournalPath, cfg.MaxJobs, logger, mx.journal)
		if err != nil {
			stop()
			return nil, err
		}
		m.journal = jl
		for _, r := range replayed {
			if !r.state.terminal() {
				// The previous incarnation died while this job was queued
				// or running: re-adopt it. The job re-enters the queue as
				// freshly submitted.
				if len(m.queue) >= cap(m.queue) {
					m.log.Warn("journal re-adoption: queue full, dropping job (resubmit to re-run)", "job", r.id)
					continue
				}
				j := newJob(m.root, r.id, r.spec)
				j.created = r.created
				m.initTrace(j, r.trace)
				m.tracer.Replay(r.id, r.spans)
				j.emit(Event{Type: "state", State: StateQueued})
				m.jobs[r.id] = j
				m.order = append(m.order, r.id)
				m.queue <- j
				m.log.Info("job re-adopted from journal", "job", r.id)
				continue
			}
			if r.state == StateDone && !m.cache.Has(r.id) {
				// The done job's bytes died with the previous process
				// (no disk tier) or were swept past the disk tier's
				// bound: materializing the record would advertise a
				// hash nobody can serve. Drop it; a resubmission simply
				// re-executes.
				continue
			}
			j := newJob(m.root, r.id, r.spec)
			j.state = r.state
			j.created, j.started, j.finished = r.created, r.started, r.finished
			switch r.state {
			case StateDone:
				j.resultHash = r.hash
				j.emit(Event{Type: "state", State: StateDone})
				j.emit(Event{Type: "done", ResultHash: r.hash})
			case StateFailed:
				j.errMsg = r.errMsg
				j.emit(Event{Type: "error", Error: r.errMsg})
			case StateCanceled:
				j.emit(Event{Type: "state", State: StateCanceled})
			}
			// Terminal from birth: release the job's child context so the
			// record doesn't pin an entry in the root context's tree.
			j.cancel()
			m.jobs[r.id] = j
			m.order = append(m.order, r.id)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Close cancels all running jobs, stops the executor pool and closes the
// journal. Jobs cut short here stay non-terminal in the journal (their
// cancel is a shutdown artifact, not a verdict) and are re-adopted by the
// next incarnation.
func (m *Manager) Close() {
	m.stop()
	m.wg.Wait()
	m.jmu.Lock()
	m.journal.Close()
	m.journal = nil
	m.jmu.Unlock()
}

// Drain begins a graceful shutdown: new submissions are refused with
// ErrDraining while queued and running jobs continue to completion. It
// returns true once no live jobs remain, or false when the timeout
// elapses first (timeout <= 0 checks exactly once). Call Close afterwards
// either way — jobs still live after a failed drain are cut short there
// and re-adopted on restart.
func (m *Manager) Drain(timeout time.Duration) bool {
	m.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for {
		if !m.anyLive() {
			return true
		}
		if timeout <= 0 || !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (m *Manager) anyLive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		live := !j.state.terminal()
		j.mu.Unlock()
		if live {
			return true
		}
	}
	return false
}

// JournalHealth reports whether the persistent journal (when configured)
// has hit a permanent write failure, and the first error if so. A
// degraded journal means restart replay can no longer be trusted to be
// complete; the daemon surfaces it as a degraded /healthz.
func (m *Manager) JournalHealth() (ok bool, detail string) {
	m.jmu.Lock()
	jl := m.journal
	m.jmu.Unlock()
	return jl.health()
}

// journalAppend enqueues one journal record (a no-op without a journal):
// a channel send to the journal's writer goroutine, so no disk I/O
// happens on the caller's lock path. jmu guards against a concurrent
// Close of the channel.
//
// Every call happens while holding m.mu (Submit appends inline; other
// paths use journalAppendSync). That invariant is what makes in-flight
// compaction sound: maybeCompactJournal snapshots job state and enqueues
// the compaction request under m.mu, so any record enqueued before the
// request reflects state the snapshot already saw, and any enqueued
// after survives the rewrite.
func (m *Manager) journalAppend(rec journalRecord) {
	// Annotate the job's open root span with the append — the tracing view
	// of journal activity. Span records themselves are excluded (every
	// span would otherwise annotate the root with its own persistence).
	if rec.Type != "span" && m.cfg.JournalPath != "" {
		if j := m.jobs[rec.ID]; j != nil {
			j.mu.Lock()
			h := j.rootSpan
			j.mu.Unlock()
			h.Annotate("journal-append", map[string]string{"type": rec.Type})
		}
	}
	m.jmu.Lock()
	defer m.jmu.Unlock()
	m.journal.append(rec)
}

// journalAppendSync is journalAppend behind m.mu, for callers (runJob,
// Cancel) that don't already hold it.
func (m *Manager) journalAppendSync(rec journalRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journalAppend(rec)
}

func newJob(ctx context.Context, id string, spec JobSpec) *job {
	jctx, cancel := context.WithCancel(ctx)
	return &job{
		id: id, spec: spec, ctx: jctx, cancel: cancel,
		state: StateQueued, created: time.Now(),
		more: make(chan struct{}),
	}
}

// initTrace assigns a job's tracing identity: the trace ID and upstream
// parent span from the propagated X-BD-Trace value when one is present
// and valid, otherwise the job's own deterministic trace ID — plus a
// pre-allocated root span ID that children (and the propagation header)
// can reference before the root span itself is sealed. No-op when
// tracing is disabled.
func (m *Manager) initTrace(j *job, traceParent string) {
	if !m.tracer.Enabled() {
		return
	}
	j.traceID = obs.TraceID(j.id)
	if tid, parent, ok := obs.ParseTraceParent(traceParent); ok {
		j.traceID, j.parentSpan = tid, parent
	}
	j.rootSpanID = m.tracer.NewSpanID()
}

// Trace exports a job's trace from the flight recorder. ok is false for
// unknown jobs, evicted traces, or when tracing is disabled.
func (m *Manager) Trace(id string) (obs.TraceExport, bool) {
	return m.tracer.Export(id)
}

// Submit enqueues a job (or replays it from the cache). Identical specs
// normalize to the same ID: a submission matching a queued or running job
// joins it, and one matching a completed job or cached result returns
// immediately with CacheHit set and the stored result.
//
// The result-cache probe — which may read the disk tier — happens outside
// m.mu, so concurrent submissions of distinct jobs never serialize behind
// disk I/O; the record map is re-checked under the lock afterwards.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	return m.SubmitTraced(spec, "")
}

// SubmitTraced is Submit with an upstream trace context — the raw
// X-BD-Trace header value ("" for none). When valid, the job's spans
// join the caller's trace (parented under the caller's span) instead of
// rooting a fresh one; anything malformed is ignored, never trusted.
func (m *Manager) SubmitTraced(spec JobSpec, traceParent string) (JobStatus, error) {
	if m.draining.Load() {
		m.mx.jobsRejected.With("draining").Inc()
		return JobStatus{}, ErrDraining
	}
	norm, err := spec.Normalized()
	if err != nil {
		m.mx.jobsRejected.With("invalid").Inc()
		return JobStatus{}, err
	}
	if m.cfg.CharacterizeOnly && norm.Mode != ModeObservations {
		m.mx.jobsRejected.With("invalid").Inc()
		return JobStatus{}, fmt.Errorf("service: this daemon is characterize-only (shard worker); it accepts only mode %q jobs", ModeObservations)
	}
	id, err := norm.id()
	if err != nil {
		m.mx.jobsRejected.With("invalid").Inc()
		return JobStatus{}, err
	}

	// The cache-probe span is built when the probe runs but recorded only
	// at an exit where the job's submit journal record already exists (or
	// is already queued ahead of it): recording during the probe would
	// journal the span line before the submit line, and replay drops
	// spans that precede their job. Recording also sinks to the journal
	// under m.mu, so it must happen after the unlock at each exit.
	var probeSpan *obs.Span
	recordProbe := func() {
		if probeSpan != nil {
			m.tracer.Record(id, *probeSpan)
			probeSpan = nil
		}
	}

	for attempt := 0; ; attempt++ {
		// Fast path, no disk I/O: a live record already covers this
		// submission.
		m.mu.Lock()
		if j, ok := m.jobs[id]; ok {
			if st := j.status(); st.State == StateQueued || st.State == StateRunning {
				m.mu.Unlock()
				m.mx.jobsSubmitted.With("deduped").Inc()
				m.log.Debug("job submission joined live job", "job", id, "state", st.State)
				return st, nil
			}
		}
		m.mu.Unlock()

		// Probe the cache (LRU, then disk tier) unlocked.
		probeStart := time.Now()
		_, hash, hit := m.cache.Get(id)
		if attempt == 0 && m.tracer.Enabled() {
			tid := obs.TraceID(id)
			parent := ""
			if t, p, ok := obs.ParseTraceParent(traceParent); ok {
				tid, parent = t, p
			}
			probeSpan = &obs.Span{
				TraceID: tid, Parent: parent, Name: "cache-probe",
				Start: probeStart, End: time.Now(),
				Attrs: map[string]string{"status": "ok", "hit": fmt.Sprintf("%t", hit)},
			}
		}

		m.mu.Lock()
		if j, ok := m.jobs[id]; ok {
			st := j.status()
			switch st.State {
			case StateQueued, StateRunning:
				// Raced with a concurrent identical submission.
				m.mu.Unlock()
				recordProbe()
				m.mx.jobsSubmitted.With("deduped").Inc()
				m.log.Debug("job submission joined live job", "job", id, "state", st.State)
				return st, nil
			case StateDone:
				if hit {
					// Count the replay as a cache hit so stats reflect
					// dedupe.
					st.ResultHash = hash
					st.CacheHit = true
					m.mu.Unlock()
					recordProbe()
					m.mx.jobsSubmitted.With("cache_hit").Inc()
					m.log.Debug("job submission replayed from cache", "job", id, "hash", hash)
					return st, nil
				}
				if attempt == 0 && st.FinishedAt != nil && st.FinishedAt.After(probeStart) {
					// The job finished — its result landing in the cache
					// — after our unlocked probe began: re-probe once.
					// A job that finished before the probe can't win that
					// race, so its miss is final and not re-counted.
					m.mu.Unlock()
					continue
				}
				// The result really was evicted from every tier: the
				// record advertises a hash nobody can serve.
				fallthrough
			default:
				// Evicted, failed or canceled: forget the old record and
				// resubmit.
				m.forgetLocked(j)
			}
		}

		if hit {
			j := newJob(m.root, id, norm)
			now := time.Now()
			j.state, j.cacheHit = StateDone, true
			j.started, j.finished = now, now
			j.resultHash = hash
			j.emit(Event{Type: "state", State: StateDone})
			j.emit(Event{Type: "done", ResultHash: hash})
			j.cancel() // born terminal: release the child context
			m.jobs[id] = j
			m.order = append(m.order, id)
			m.evictLocked()
			m.journalAppend(journalRecord{TS: now, Type: "submit", ID: id, Spec: &norm})
			m.journalAppend(journalRecord{TS: now, Type: "done", ID: id, Hash: hash})
			st := j.status()
			m.mu.Unlock()
			recordProbe()
			m.mx.jobsSubmitted.With("cache_hit").Inc()
			m.log.Info("job submitted", "job", id, "state", StateDone, "cache_hit", true, "hash", hash)
			// Born-done jobs never pass through runJob, so this is their
			// only chance to trigger in-flight journal compaction — the
			// steady state of a cache-dominated daemon.
			m.maybeCompactJournal()
			return st, nil
		}

		// Capacity check before any record exists: Submit is the only
		// queue sender and it holds m.mu, so len < cap here guarantees
		// the send below cannot block — and a rejected submission leaves
		// no job record, no journal entry and no dangling child context.
		if len(m.queue) >= cap(m.queue) {
			m.mu.Unlock()
			m.mx.jobsRejected.With("queue_full").Inc()
			m.log.Warn("job submission rejected: queue full", "job", id, "queue_capacity", cap(m.queue))
			return JobStatus{}, ErrQueueFull
		}
		j := newJob(m.root, id, norm)
		m.initTrace(j, traceParent)
		// Record and emit "queued" before the channel send: a free worker
		// can pick the job up (and emit "running") the instant it lands
		// in the queue, and the stream must start with the queued event.
		// The submit journal record is written before the send too, so it
		// always precedes the job's start/terminal records in the file.
		m.jobs[id] = j
		m.order = append(m.order, id)
		m.evictLocked()
		j.emit(Event{Type: "state", State: StateQueued})
		trace := ""
		if j.parentSpan != "" {
			// Persist the propagated trace identity so a re-adopted job's
			// new spans still join the upstream trace after a crash.
			trace = obs.FormatTraceParent(j.traceID, j.parentSpan)
		}
		m.journalAppend(journalRecord{TS: j.created, Type: "submit", ID: id, Spec: &norm, Trace: trace})
		m.queue <- j
		st := j.status()
		m.mu.Unlock()
		recordProbe()
		m.mx.jobsSubmitted.With("queued").Inc()
		m.log.Info("job submitted", "job", id, "state", StateQueued, "mode", norm.Mode, "workloads", len(norm.Workloads))
		return st, nil
	}
}

// evictLocked bounds the job-record map at cfg.MaxJobs by dropping the
// oldest terminal records. Live (queued/running) jobs are never evicted —
// the map can transiently exceed the bound while that many jobs are in
// flight. An evicted done job stays servable: its result lives in the
// result cache, which Result consults for unknown IDs, and an identical
// resubmission replays from the cache as a fresh born-done record.
func (m *Manager) evictLocked() {
	for len(m.jobs) > m.cfg.MaxJobs {
		evicted := false
		for _, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			// shutdownCanceled jobs are terminal in memory but must keep
			// their record until the journal is done with them.
			terminal := j.state.terminal() && !j.shutdownCanceled
			j.mu.Unlock()
			if terminal {
				m.forgetLocked(j)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// evict is evictLocked behind m.mu, for post-completion trimming.
func (m *Manager) evict() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked()
}

// forgetLocked drops a terminal job's record — its child context and
// its flight-recorder trace with it — so its ID can be submitted afresh.
// Callers hold m.mu.
func (m *Manager) forgetLocked(j *job) {
	j.cancel()
	delete(m.jobs, j.id)
	m.dropFromOrder(j.id)
	m.tracer.Remove(j.id)
}

func (m *Manager) dropFromOrder(id string) {
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// Get returns a job's status. A done job whose result has left every
// tier is forgotten here, as Result forgets it, so status never
// advertises a hash nobody can serve. The presence check counts no
// cache request: polling status leaves bd_cache_* alone.
func (m *Manager) Get(id string) (JobStatus, bool) {
	j, ok := m.job(id)
	if !ok {
		return JobStatus{}, false
	}
	st := j.status()
	if st.State == StateDone && !m.cache.Has(id) {
		m.forget(j)
		return JobStatus{}, false
	}
	return st, true
}

// Result returns the canonical result JSON of a completed job. Bytes are
// held once, in the result cache — job records only carry the hash — so
// long-lived daemons don't pin a second copy of every result. Unknown IDs
// still consult the cache: results persisted by an earlier process are
// servable before any submission. A done job whose result has been
// evicted from every tier loses its record here, so its status agrees
// with the 404 and a resubmission re-executes it.
func (m *Manager) Result(id string) ([]byte, bool) {
	j, known := m.job(id)
	if known {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state != StateDone {
			// Not finished (or failed/canceled): no result exists, and
			// polling must not inflate the cache miss counters.
			return nil, false
		}
	}
	if data, _, ok := m.cache.Get(id); ok {
		return data, true
	}
	if known {
		m.forget(j)
	}
	return nil, false
}

// forget drops j's record unless a newer record has replaced it.
func (m *Manager) forget(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobs[j.id] == j {
		m.forgetLocked(j)
	}
}

// Cancel cancels a queued or running job. It reports whether the job
// exists; cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.job(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	j.userCancel = true
	settled := false
	if j.state == StateQueued {
		// Not started yet: settle it immediately; the worker skips it.
		j.state = StateCanceled
		j.finished = time.Now()
		j.emitLocked(Event{Type: "state", State: StateCanceled})
		settled = true
	}
	j.mu.Unlock()
	if settled {
		m.mx.jobsCompleted.With(string(StateCanceled)).Inc()
		m.log.Info("job canceled while queued", "job", id)
		m.journalAppendSync(journalRecord{TS: time.Now(), Type: "cancel", ID: j.id})
		m.maybeCompactJournal()
	} else {
		m.log.Info("job cancel requested", "job", id)
	}
	j.cancel()
	return true
}

// List returns all job statuses in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.job(id); ok {
			out = append(out, j.status())
		}
	}
	return out
}

// CacheStats returns the result tier's status: the GET /v1/cache/stats
// body, and /v1/status's result_cache.
func (m *Manager) CacheStats() CacheTierStatus { return m.cache.Stats() }

func (m *Manager) job(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// worker is one executor: it drains the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.root.Done():
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob executes one job end to end: resolve the suite, characterize
// with per-cell progress, analyze with stage progress, encode, cache.
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return // canceled while queued
	}
	j.state = StateRunning
	j.started = time.Now()
	j.emitLocked(Event{Type: "state", State: StateRunning})
	created, started := j.created, j.started
	j.mu.Unlock()
	// Open the job's root span under its pre-allocated ID and backfill the
	// time spent queued as a queue-wait child. Both no-op when disabled.
	rootSpan := m.tracer.StartSpanID(j.id, j.traceID, j.parentSpan, "job", j.rootSpanID)
	rootSpan.SetAttr("job", j.id)
	if rootSpan != nil {
		m.tracer.Record(j.id, obs.Span{
			TraceID: j.traceID, Parent: j.rootSpanID, Name: "queue-wait",
			Start: created, End: started,
			Attrs: map[string]string{"status": "ok"},
		})
	}
	j.mu.Lock()
	j.rootSpan = rootSpan
	j.mu.Unlock()
	m.log.Info("job started", "job", j.id)
	m.journalAppendSync(journalRecord{TS: started, Type: "start", ID: j.id})

	hash, err := m.execute(j)
	now := time.Now()
	elapsed := now.Sub(started)
	var rec journalRecord
	skipJournal := false
	j.mu.Lock()
	j.finished = now
	switch {
	case err == nil:
		j.state = StateDone
		j.resultHash = hash
		j.emitLocked(Event{Type: "done", ResultHash: hash})
		rec = journalRecord{TS: now, Type: "done", ID: j.id, Hash: hash}
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.emitLocked(Event{Type: "state", State: StateCanceled})
		if m.root.Err() != nil && !j.userCancel {
			// Shutdown cut the run short — nobody canceled the *job*. No
			// terminal record: the journal keeps the submit (and any unit
			// progress), so the next incarnation re-adopts and finishes it.
			j.shutdownCanceled = true
			skipJournal = true
		} else {
			rec = journalRecord{TS: now, Type: "cancel", ID: j.id}
		}
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.emitLocked(Event{Type: "error", Error: err.Error()})
		rec = journalRecord{TS: now, Type: "fail", ID: j.id, Err: err.Error()}
	}
	state := j.state
	j.rootSpan = nil // no further annotations after the terminal record
	j.mu.Unlock()
	m.mx.jobsCompleted.With(string(state)).Inc()
	m.mx.jobDuration.With(string(state)).Observe(elapsed.Seconds())
	rootSpan.SetAttr("state", string(state))
	if state == StateFailed {
		rootSpan.EndErr(err)
	} else {
		rootSpan.End()
	}
	switch state {
	case StateDone:
		m.log.Info("job done", "job", j.id, "duration", elapsed, "hash", hash)
	case StateCanceled:
		m.log.Info("job canceled", "job", j.id, "duration", elapsed, "shutdown", skipJournal)
	default:
		m.log.Warn("job failed", "job", j.id, "duration", elapsed, "error", err)
	}
	// Terminal: release the job's child context — nothing runs under it
	// anymore, and an un-canceled child would stay registered in the root
	// context's tree for the daemon's lifetime.
	j.cancel()
	if skipJournal {
		return
	}
	m.journalAppendSync(rec)
	// The finished job may push the record map past its bound.
	m.evict()
	m.maybeCompactJournal()
}

// maybeCompactJournal re-compacts the journal in flight once appends
// since the last compaction exceed a few multiples of the retained-job
// bound, so a long-running daemon's journal file stays proportional to
// -max-jobs instead of growing for the process lifetime. The snapshot is
// taken here (the writer goroutine has no access to manager state); the
// rewrite itself happens on the writer goroutine, in order with the
// appends already queued ahead of it. The snapshot covers *all* current
// records — live jobs keep their submit/start lines so the terminal
// record they append later still binds on replay. Every journal append
// in the manager happens under m.mu (see journalAppend), and the
// snapshot + compaction request are taken while holding m.mu, so no
// record of any kind can slip between the snapshot and the request and
// be erased by the rewrite.
//
// The append count restarts with each request, so requests come at most
// once per threshold's worth of records. A request made while an earlier
// one is still queued or running simply follows it on the writer. Once
// the writer catches up, the file holds the last snapshot plus less than
// one threshold of tail records, however fast appends arrive.
func (m *Manager) maybeCompactJournal() {
	m.jmu.Lock()
	jl := m.journal
	m.jmu.Unlock()
	if jl == nil {
		return
	}
	threshold := int64(4*m.cfg.MaxJobs + 64)
	if jl.appends.Load() < threshold {
		return
	}

	m.mu.Lock()
	// Re-check under m.mu, where the count is reset: a concurrent caller
	// may have requested this compaction already.
	if jl.appends.Load() < threshold {
		m.mu.Unlock()
		return
	}
	snapshot := make([]replayedJob, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		state := j.state
		if j.shutdownCanceled {
			// Canceled by shutdown, not by anyone's verdict: compaction
			// must keep the job non-terminal so the next incarnation
			// re-adopts it.
			state = ""
		}
		trace := ""
		if j.parentSpan != "" {
			trace = obs.FormatTraceParent(j.traceID, j.parentSpan)
		}
		var spans []obs.Span
		if !state.terminal() && m.tracer.Enabled() {
			// In-flight jobs keep their spans across the rewrite — the
			// trace must survive compaction the same way the job
			// itself does. Terminal jobs' spans are dropped with the rest of
			// their non-essential history.
			if exp, ok := m.tracer.Export(j.id); ok {
				spans = exp.Spans
			}
		}
		snapshot = append(snapshot, replayedJob{
			id: j.id, spec: j.spec, state: state,
			hash: j.resultHash, errMsg: j.errMsg,
			created: j.created, started: j.started, finished: j.finished,
			trace: trace, spans: spans,
		})
		j.mu.Unlock()
	}
	// Every record appended from now on lands after the rewrite and counts
	// toward the next threshold, even while this compaction is still queued.
	jl.appends.Store(0)
	m.jmu.Lock()
	m.journal.requestCompact(snapshot)
	m.jmu.Unlock()
	m.mu.Unlock()
}

// execute computes a job's result bytes — through the configured Execute
// hook or the local pipeline — and stores them in the result cache.
func (m *Manager) execute(j *job) (string, error) {
	progress := func(stage core.Stage, done, total int) {
		if m.cfg.CellDelay > 0 && stage == core.StageCharacterize && total > 0 {
			// The grid workers report each cell from their own goroutine,
			// so sleeping here throttles the measurement loop itself.
			// Deliberately before j.mu: a throttle must not block status
			// reads.
			time.Sleep(m.cfg.CellDelay)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		if string(stage) != j.stage {
			j.stage = string(stage)
			j.lastEmit = 0
			j.cellsDone, j.cellsTotal = 0, 0
			j.emitLocked(Event{Type: "stage", Stage: j.stage})
		}
		if total == 0 {
			return
		}
		// Grid workers report concurrently and can acquire j.mu out of
		// done order; drop stale counts so cellsDone stays monotone and
		// the done==total report is never overwritten.
		if done < j.cellsDone {
			return
		}
		j.cellsDone, j.cellsTotal = done, total
		// Throttle per-cell events to ~1 % steps (always reporting the
		// final cell) so huge grids don't flood the stream.
		step := total / 100
		if step < 1 {
			step = 1
		}
		if done == total || done-j.lastEmit >= step {
			j.lastEmit = done
			j.emitLocked(Event{
				Type: "progress", Stage: j.stage, Done: done, Total: total,
			})
		}
	}

	exec := m.cfg.Execute
	if exec == nil {
		exec = m.executeLocal
	}
	// The timer wraps the progress chain: stage transitions flow through
	// it for both the local pipeline and sharded executors, feeding the
	// per-stage duration histogram.
	timer := core.NewStageTimer(progress, func(stage core.Stage, seconds float64) {
		m.mx.stageDuration.With(string(stage)).Observe(seconds)
	})
	ctx := j.ctx
	// Tracing capability: stage transitions become spans under the job's
	// root span, and sharded executors pick the context off ctx to emit
	// plan/unit/merge spans into the same trace.
	if m.tracer.Enabled() {
		tc := &obs.TraceContext{Rec: m.tracer, JobID: j.id, TraceID: j.traceID, Root: j.rootSpanID}
		timer.OnSpan(func(stage core.Stage, start, end time.Time) {
			tc.RecordInterval("", string(stage), start, end,
				map[string]string{"kind": "stage", "status": "ok"})
		})
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	data, err := exec(ctx, j.spec, timer.Progress)
	timer.Finish()
	if err != nil {
		return "", err
	}
	hash, err := m.cache.Put(j.id, data)
	if err != nil {
		return "", fmt.Errorf("service: caching result: %w", err)
	}
	return hash, nil
}

// countingCellCache wraps the manager's cell store for one job run,
// counting this job's probe outcomes so the cellcache-probe span can
// carry them as attributes (the store's own counters are daemon-global).
type countingCellCache struct {
	cc           cluster.CellCache
	hits, misses atomic.Int64
}

func (c *countingCellCache) GetCell(workload, key string, runs, metrics int) ([][]float64, bool) {
	vecs, ok := c.cc.GetCell(workload, key, runs, metrics)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return vecs, ok
}

func (c *countingCellCache) PutCell(workload, key string, vecs [][]float64) {
	c.cc.PutCell(workload, key, vecs)
}

// executeLocal runs a job's pipeline in-process: the full characterize +
// analyze pipeline for analyze jobs, or just the measurement grid —
// returning the raw observation matrix — for characterize-only jobs.
// With a cell cache configured, the grid probes it column by column
// (through the context hook, see cluster.ContextWithCellCache); the
// probe outcome is summarized in a cellcache-probe span under the job's
// root.
func (m *Manager) executeLocal(ctx context.Context, spec JobSpec, progress core.Progress) ([]byte, error) {
	suite, err := spec.ResolveSuite()
	if err != nil {
		return nil, err
	}
	ccfg := spec.Cluster
	ccfg.Parallelism = m.cfg.Parallelism

	if m.cfg.Cells != nil {
		probe := &countingCellCache{cc: m.cfg.Cells}
		ctx = cluster.ContextWithCellCache(ctx, probe)
		if tc := obs.TraceFromContext(ctx); tc != nil {
			// The probes interleave with the grid's startup, so the span
			// summarizing them is recorded once the job's grid work is
			// over, as an instant carrying this job's hit/miss counts.
			defer func() {
				tc.Instant("cellcache-probe", map[string]string{
					"hits":   strconv.FormatInt(probe.hits.Load(), 10),
					"misses": strconv.FormatInt(probe.misses.Load(), 10),
				})
			}()
		}
	}

	if spec.Mode == ModeObservations {
		om, err := core.CharacterizeObservationsCtx(ctx, suite, ccfg, progress)
		if err != nil {
			return nil, err
		}
		return benchio.MarshalCanonical(benchio.EncodeObservations(om))
	}

	acfg := spec.Analysis
	acfg.Parallelism = m.cfg.Parallelism
	ds, err := core.CharacterizeSuiteCtx(ctx, suite, ccfg, progress)
	if err != nil {
		return nil, err
	}
	an, err := core.AnalyzeCtx(ctx, ds, acfg, progress)
	if err != nil {
		return nil, err
	}
	return benchio.MarshalCanonical(benchio.EncodeAnalysis(an))
}
