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
	// itself is sealed.
	traceID    string
	parentSpan string
	rootSpanID string

	// userCancel marks an explicit Manager.Cancel, distinguishing it from
	// a shutdown cancelation (the root context closing). Only the former
	// writes a canceled record; a job shutdown cuts short keeps its queued
	// record so the next incarnation re-adopts it.
	userCancel bool
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

// recordLocked is the job's persistent record as of now. Callers hold
// j.mu.
func (j *job) recordLocked() jobRecord {
	rec := jobRecord{
		Spec: j.spec, State: j.state, Hash: j.resultHash, Error: j.errMsg,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.parentSpan != "" {
		// Persist the propagated trace identity so a re-adopted job's
		// spans still join the upstream trace after a restart.
		rec.Trace = obs.FormatTraceParent(j.traceID, j.parentSpan)
	}
	return rec
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

// finishLocked moves j to a terminal state and emits the event that ends
// its stream. Callers hold j.mu.
func (j *job) finishLocked(state State, hash, errMsg string, at time.Time) {
	j.state, j.finished = state, at
	switch state {
	case StateDone:
		j.resultHash = hash
		j.emitLocked(Event{Type: "done", ResultHash: hash})
	case StateFailed:
		j.errMsg = errMsg
		j.emitLocked(Event{Type: "error", Error: errMsg})
	default:
		j.emitLocked(Event{Type: "state", State: StateCanceled})
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
	// <job-id>.json per result, bounded by write recency) and the job
	// records at <DataDir>/jobs (one <job-id>.json per retained job, read
	// back on boot so job metadata survives restarts and jobs a previous
	// incarnation left unfinished are re-adopted). Empty disables both:
	// results then live only in the in-memory LRU, and nothing survives
	// a restart.
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
	// Deprecated: JournalPath is ignored. Job records live under
	// DataDir (see DataDir); an old journal file is neither read nor
	// removed.
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
	// absolute node, all runs — see internal/cellcache). Without an
	// Execute hook, RunUnits probes it before the grid runs and stores
	// the columns it missed, so overlapping suites recompute only the
	// columns they do not share; Status reports its counters either way
	// (a coordinator's executor runs RunUnits over the same store).
	// Purely an accelerator: cached and recomputed results are
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
	// Execute replaces the whole pipeline — the hook through which bdcoord
	// turns a Manager into a shard coordinator while reusing its queue,
	// cache, job records and event plumbing. Nil runs each job in-process
	// as one unit covering the grid: RunUnits with this daemon's machines
	// as its Runner, then EncodeResult.
	Execute ExecuteFunc
	// Registry receives the manager's metrics (queue depth, jobs by
	// state, cache and job-record counters, job and stage duration
	// histograms) and backs the handler's GET /metrics. Nil uses a
	// private registry: instruments still work, nothing renders them.
	Registry *obs.Registry
	// Sampler, when set, contributes its trailing time-series window to
	// GET /v1/status. The manager never starts or stops it — the owning
	// daemon drives the tick (see obs.Sampler.Start).
	Sampler *obs.Sampler
	// Logger receives structured job-lifecycle log lines, each tagged
	// with the job ID. Nil discards them.
	Logger *slog.Logger
}

// ErrQueueFull is returned by Submit when the job queue is at capacity.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned by Submit once Drain has begun: the daemon is
// shutting down and admits no new work.
var ErrDraining = errors.New("service: draining for shutdown")

// ErrRecordWrite is returned (wrapped) by Submit when the job's record
// could not be written: the submission is refused and leaves no job.
var ErrRecordWrite = errors.New("service: writing job record")

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
	records  *recordStore // nil without DataDir

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing
	queue chan *job
	// pending holds submissions whose queued record is being written:
	// each holds a queue slot, and an identical submission waits on the
	// channel instead of writing a second record.
	pending map[string]chan struct{}
}

// New starts a manager with cfg.Workers executor goroutines. With a
// DataDir it first reads the job records back (see restore): terminal
// jobs keep their status across restarts, and jobs a previous
// incarnation left queued or running are re-adopted — re-queued as if
// freshly submitted. A sharded executor recovers their finished work
// from its own cell cache, not from the record.
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
	records, err := openRecords(cfg.DataDir, mx.recordWrites, logger)
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
		records:   records,
		jobs:      make(map[string]*job),
		queue:     make(chan *job, cfg.QueueDepth),
		pending:   make(map[string]chan struct{}),
	}
	mx.registerGauges(reg, m)
	if cfg.TraceBuffer >= 0 {
		buf := cfg.TraceBuffer
		if buf == 0 {
			buf = 2048
		}
		m.tracer = obs.NewFlightRecorder(cfg.TraceService, cfg.MaxJobs, buf)
	}
	for _, r := range records.load() {
		m.restore(r)
	}
	m.evict()
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// restore rebuilds one job from its record at boot. A record whose
// result some tier holds is done, whatever state it says; a done record
// without one is deleted (a resubmission simply re-executes); a
// non-terminal record is re-adopted while the queue has room, and
// otherwise stays on disk, unadopted, for a later boot with a deeper
// queue; failed and canceled records come back as they were.
func (m *Manager) restore(r storedRecord) {
	j := newJob(m.root, r.id, r.Spec)
	j.created, j.started = r.Created, r.Started
	hash := r.Hash
	if m.cache.Has(r.id) {
		ok := r.State == StateDone && hash != ""
		if !ok {
			// The job's result landed but its terminal record did not.
			_, hash, ok = m.cache.Get(r.id)
		}
		if ok {
			r.State = StateDone
		}
	} else if r.State == StateDone {
		m.records.remove(r.id)
		return
	}
	j.mu.Lock()
	switch {
	case r.State.terminal():
		if r.State == StateDone {
			j.emitLocked(Event{Type: "state", State: StateDone})
		}
		j.finishLocked(r.State, hash, r.Error, r.Finished)
		// Terminal from birth: release the job's child context so the
		// record doesn't pin an entry in the root context's tree.
		j.cancel()
	case len(m.queue) >= cap(m.queue):
		j.mu.Unlock()
		j.cancel()
		m.log.Warn("re-adoption: queue full, job record kept for a later boot", "job", r.id)
		return
	default:
		j.started = time.Time{}
		m.initTrace(j, r.Trace)
		m.tracer.Replay(r.id, r.Spans)
		j.emitLocked(Event{Type: "state", State: StateQueued})
		m.queue <- j
		m.log.Info("job re-adopted", "job", r.id)
	}
	j.mu.Unlock()
	m.jobs[r.id] = j
	m.order = append(m.order, r.id)
}

// Close cancels all running jobs and stops the executor pool. Jobs cut
// short here keep their queued record (their cancel is a shutdown
// artifact, not a verdict) and are re-adopted by the next incarnation.
func (m *Manager) Close() {
	m.draining.Store(true)
	m.stop()
	m.wg.Wait()
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
	if len(m.pending) > 0 {
		return true
	}
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
// The result-cache probe — which may read the disk tier — and the job
// record write happen outside m.mu, so concurrent submissions of distinct
// jobs never serialize behind each other's disk I/O; the record map is
// re-checked under the lock afterwards.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	return m.SubmitTraced(spec, "")
}

// SubmitTraced is Submit with an upstream trace context — the raw
// X-BD-Trace header value ("" for none). When valid, the job's spans
// join the caller's trace (parented under the caller's span) instead of
// rooting a fresh one; anything malformed is ignored, never trusted.
func (m *Manager) SubmitTraced(spec JobSpec, traceParent string) (JobStatus, error) {
	norm, id, err := m.admit(spec)
	if err != nil {
		return JobStatus{}, err
	}
	var probe *obs.Span
	for attempt := 0; ; attempt++ {
		// Fast path, no disk I/O: a live record already covers this
		// submission.
		st, ok := m.joinLive(id)
		if !ok {
			probeStart := time.Now()
			_, hash, hit := m.cache.Get(id)
			if attempt == 0 {
				probe = m.probeSpan(id, traceParent, probeStart, hit)
			}
			var retry bool
			if st, retry, err = m.place(id, norm, traceParent, hash, hit, probeStart, attempt); retry {
				continue
			}
		}
		// Recorded once the submission is placed: place drops the trace of
		// a record it replaces.
		if probe != nil && err == nil {
			m.tracer.Record(id, *probe)
		}
		return st, err
	}
}

// admit refuses what no submission attempt could accept — a draining
// daemon, an invalid spec, an analysis job on a characterize-only worker
// — and returns the normalized spec with its job ID.
func (m *Manager) admit(spec JobSpec) (JobSpec, string, error) {
	if m.draining.Load() {
		m.mx.jobsRejected.With("draining").Inc()
		return JobSpec{}, "", ErrDraining
	}
	norm, err := spec.Normalized()
	if err == nil && m.cfg.CharacterizeOnly && norm.Mode != ModeObservations {
		err = fmt.Errorf("service: this daemon is characterize-only (shard worker); it accepts only mode %q jobs", ModeObservations)
	}
	var id string
	if err == nil {
		id, err = norm.id()
	}
	if err != nil {
		m.mx.jobsRejected.With("invalid").Inc()
		return JobSpec{}, "", err
	}
	return norm, id, nil
}

// joinLive returns the status of the queued or running job id, if there
// is one.
func (m *Manager) joinLive(id string) (JobStatus, bool) {
	j, ok := m.job(id)
	if !ok {
		return JobStatus{}, false
	}
	st := j.status()
	if st.State != StateQueued && st.State != StateRunning {
		return JobStatus{}, false
	}
	m.mx.jobsSubmitted.With("deduped").Inc()
	m.log.Debug("job submission joined live job", "job", id, "state", st.State)
	return st, true
}

// probeSpan is the cache-probe span of a submission's result-cache
// lookup (nil when tracing is disabled).
func (m *Manager) probeSpan(id, traceParent string, start time.Time, hit bool) *obs.Span {
	if !m.tracer.Enabled() {
		return nil
	}
	tid, parent := obs.TraceID(id), ""
	if t, p, ok := obs.ParseTraceParent(traceParent); ok {
		tid, parent = t, p
	}
	return &obs.Span{
		TraceID: tid, Parent: parent, Name: "cache-probe",
		Start: start, End: time.Now(),
		Attrs: map[string]string{"status": "ok", "hit": strconv.FormatBool(hit)},
	}
}

// place settles a submission after its unlocked cache probe: it serves
// a hit or enqueues a fresh job. retry asks SubmitTraced to start over —
// to join an identical submission that went live (or is writing its
// record) meanwhile, or to re-probe.
func (m *Manager) place(id string, norm JobSpec, traceParent, hash string, hit bool, probeStart time.Time, attempt int) (st JobStatus, retry bool, err error) {
	m.mu.Lock()
	if wait, ok := m.pending[id]; ok {
		m.mu.Unlock()
		<-wait
		return JobStatus{}, true, nil
	}
	if j, ok := m.jobs[id]; ok {
		st := j.status()
		switch {
		case st.State == StateQueued || st.State == StateRunning:
			m.mu.Unlock()
			return JobStatus{}, true, nil
		case st.State == StateDone && hit:
			// Count the replay as a cache hit so stats reflect dedupe.
			st.ResultHash, st.CacheHit = hash, true
			m.mu.Unlock()
			m.mx.jobsSubmitted.With("cache_hit").Inc()
			m.log.Debug("job submission replayed from cache", "job", id, "hash", hash)
			return st, false, nil
		case st.State == StateDone && attempt == 0 && st.FinishedAt != nil && st.FinishedAt.After(probeStart):
			// The job finished — its result landing in the cache — after
			// our unlocked probe began: re-probe once. A job that finished
			// before the probe can't win that race, so its miss is final
			// and not re-counted.
			m.mu.Unlock()
			return JobStatus{}, true, nil
		}
		// Failed, canceled, or done with its result evicted from every
		// tier: forget the old record and resubmit.
		m.forgetLocked(j)
	}
	if hit {
		return m.serveHitLocked(id, norm, hash), false, nil
	}
	st, err = m.enqueueLocked(id, norm, traceParent)
	return st, false, err
}

// serveHitLocked records a submission the result cache answered as a
// born-done job. It writes no job record — the result itself is what
// done means — so replaying cached results stays write-free. Called with
// m.mu held; returns with it released.
func (m *Manager) serveHitLocked(id string, norm JobSpec, hash string) JobStatus {
	j := newJob(m.root, id, norm)
	j.mu.Lock()
	j.cacheHit, j.started = true, time.Now()
	j.emitLocked(Event{Type: "state", State: StateDone})
	j.finishLocked(StateDone, hash, "", j.started)
	j.mu.Unlock()
	j.cancel() // born terminal: release the child context
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.evictLocked()
	st := j.status()
	m.mu.Unlock()
	m.mx.jobsSubmitted.With("cache_hit").Inc()
	m.log.Info("job submitted", "job", id, "state", StateDone, "cache_hit", true, "hash", hash)
	return st
}

// enqueueLocked queues a fresh job. The queue slot is reserved under
// m.mu, the queued record is written without it, and only then does the
// job become visible: a rejected submission — queue full, or a record
// that could not be written — leaves no job, no record and no dangling
// child context. Called with m.mu held; returns with it released.
func (m *Manager) enqueueLocked(id string, norm JobSpec, traceParent string) (JobStatus, error) {
	// Submit is the only queue sender and reserves its slot here, so the
	// send below can never block.
	if len(m.queue)+len(m.pending) >= cap(m.queue) {
		m.mu.Unlock()
		m.mx.jobsRejected.With("queue_full").Inc()
		m.log.Warn("job submission rejected: queue full", "job", id, "queue_capacity", cap(m.queue))
		return JobStatus{}, ErrQueueFull
	}
	j := newJob(m.root, id, norm)
	m.initTrace(j, traceParent)
	wait := make(chan struct{})
	m.pending[id] = wait
	m.mu.Unlock()

	err := m.records.put(id, j.recordLocked()) // j is not visible yet

	m.mu.Lock()
	delete(m.pending, id)
	close(wait)
	if err != nil {
		m.mu.Unlock()
		j.cancel()
		m.mx.jobsRejected.With("record_write").Inc()
		return JobStatus{}, fmt.Errorf("%w: %v", ErrRecordWrite, err)
	}
	// Emit "queued" before the channel send: a free worker can pick the
	// job up (and emit "running") the instant it lands in the queue, and
	// the stream must start with the queued event.
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.evictLocked()
	j.emit(Event{Type: "state", State: StateQueued})
	m.queue <- j
	st := j.status()
	m.mu.Unlock()
	m.mx.jobsSubmitted.With("queued").Inc()
	m.log.Info("job submitted", "job", id, "state", StateQueued, "mode", norm.Mode, "workloads", len(norm.Workloads))
	return st, nil
}

// evictLocked bounds the job-record map at cfg.MaxJobs by dropping the
// oldest terminal records. Live (queued/running) jobs are never evicted —
// the map can transiently exceed the bound while that many jobs are in
// flight. An evicted done job stays servable: its result lives in the
// result cache, which Result consults for unknown IDs, and an identical
// resubmission replays from the cache as a fresh born-done record.
//
// Once Close has begun nothing is evicted: a job shutdown cut short is
// canceled in memory, but its queued record must survive for the next
// boot to re-adopt.
func (m *Manager) evictLocked() {
	if m.root.Err() != nil {
		return
	}
	for len(m.jobs) > m.cfg.MaxJobs {
		evicted := false
		for _, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			terminal := j.state.terminal()
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

// forgetLocked drops a terminal job — its child context, its
// flight-recorder trace and its record file with it — so its ID can be
// submitted afresh and the record directory mirrors the retained map.
// A terminal job's record was written before its state was published,
// so no write of it can land after this delete. Callers hold m.mu.
func (m *Manager) forgetLocked(j *job) {
	j.cancel()
	delete(m.jobs, j.id)
	m.dropFromOrder(j.id)
	m.tracer.Remove(j.id)
	m.records.remove(j.id)
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
// exists; cancelling a terminal job is a no-op. A queued job is settled
// here — its canceled record written, then its state published — and
// the executor skips it; a running one settles when its executor
// returns.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.job(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	queued := j.state == StateQueued && !j.userCancel
	j.userCancel = true
	j.mu.Unlock()
	j.cancel()
	if queued {
		m.mx.jobsCompleted.With(string(StateCanceled)).Inc()
		m.log.Info("job canceled while queued", "job", id)
		m.settle(j, StateCanceled, "", "")
	} else {
		m.log.Info("job cancel requested", "job", id)
	}
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
	if j.state != StateQueued || j.userCancel {
		j.mu.Unlock()
		return // canceled while queued: Cancel settles it
	}
	j.state = StateRunning
	j.started = time.Now()
	j.emitLocked(Event{Type: "state", State: StateRunning})
	created, started := j.created, j.started
	j.mu.Unlock()
	m.mx.busy.Add(1)
	defer m.mx.busy.Add(-1)
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
	m.log.Info("job started", "job", j.id)

	hash, err := m.execute(j)
	elapsed := time.Since(started)
	state, errMsg := StateDone, ""
	switch {
	case err == nil:
		m.log.Info("job done", "job", j.id, "duration", elapsed, "hash", hash)
	case errors.Is(err, context.Canceled):
		state = StateCanceled
		m.log.Info("job canceled", "job", j.id, "duration", elapsed, "shutdown", m.root.Err() != nil)
	default:
		state, errMsg = StateFailed, err.Error()
		m.log.Warn("job failed", "job", j.id, "duration", elapsed, "error", err)
	}
	rootSpan.SetAttr("state", string(state))
	if state == StateFailed {
		rootSpan.EndErr(err)
	} else {
		rootSpan.End()
	}
	m.mx.jobsCompleted.With(string(state)).Inc()
	m.mx.jobDuration.With(string(state)).Observe(elapsed.Seconds())
	m.settle(j, state, hash, errMsg)
}

// settle finishes a job: it writes the job's record, then publishes the
// terminal state and event, then trims the record map. Writing first
// means whatever observes the terminal state — a poller, the eviction
// that deletes the record — finds the record already on disk. A failed
// write is logged and degrades the daemon's /healthz but costs the job nothing: a
// done job's result decides its state at boot, and a failed or canceled
// one whose record still says queued merely re-runs.
//
// A job shutdown cut short — canceled, but by nobody — ends canceled in
// memory only, so subscribers see their stream end. Its record stays
// queued, now carrying the trace so far, so the next incarnation
// re-adopts it and replays those spans.
func (m *Manager) settle(j *job, state State, hash, errMsg string) {
	now := time.Now()
	j.mu.Lock()
	rec := j.recordLocked()
	shutdown := state == StateCanceled && !j.userCancel && m.root.Err() != nil
	j.mu.Unlock()
	rec.State, rec.Hash, rec.Error, rec.Finished = state, hash, errMsg, now
	if shutdown {
		rec.State, rec.Finished = StateQueued, time.Time{}
		if exp, ok := m.tracer.Export(j.id); ok {
			rec.Spans = exp.Spans
		}
	}
	m.records.put(j.id, rec)

	j.mu.Lock()
	j.finishLocked(state, hash, errMsg, now)
	j.mu.Unlock()
	// Terminal: release the job's child context — nothing runs under it
	// anymore, and an un-canceled child would stay registered in the root
	// context's tree for the daemon's lifetime.
	j.cancel()
	m.evict()
}

// execute computes a job's result bytes — through the configured Execute
// hook or the in-process unit run — and stores them in the result cache.
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
		exec = m.executeUnits
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

// EncodeResult turns a job's full observation matrix into its result
// bytes: the canonical matrix for an observations job, or the canonical
// analysis of the reduced matrix for an analyze job, whose analysis stage
// runs at the given parallelism. The in-process pipeline and the shard
// coordinator both end here, so one matrix always answers one byte string.
func EncodeResult(ctx context.Context, spec JobSpec, om *core.ObservationMatrix, parallelism int, progress core.Progress) ([]byte, error) {
	if spec.Mode == ModeObservations {
		return benchio.MarshalCanonical(benchio.EncodeObservations(om))
	}
	acfg := spec.Analysis
	acfg.Parallelism = parallelism
	an, err := core.AnalyzeObservationsCtx(ctx, om, acfg, progress)
	if err != nil {
		return nil, err
	}
	return benchio.MarshalCanonical(benchio.EncodeAnalysis(an))
}
