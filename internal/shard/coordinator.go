package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchio"
	"repro/internal/bigdata/workloads"
	"repro/internal/cellcache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Config configures the coordinator-side executor.
type Config struct {
	// Workers seeds the fleet with bdservd base URLs at startup. Seeded
	// members are permanent (no lease); further workers may join and
	// leave at runtime through Register/Deregister (bdcoord's POST
	// /v1/workers), held by heartbeat leases. The list may be empty — an
	// all-elastic fleet — in which case jobs wait for the first
	// registration (bounded by DownGrace).
	Workers []string
	// HTTPClient overrides the transport used for all workers. Nil uses
	// a default with a response-header timeout, so a worker that accepts
	// connections but never answers fails the attempt instead of hanging
	// it.
	HTTPClient *http.Client
	// StallTimeout bounds worker *unresponsiveness* per unit attempt:
	// after this long with no event-stream activity the coordinator
	// probes the worker's job status, and only an unanswered probe
	// abandons the attempt and re-queues the unit. A unit legitimately
	// queued behind other jobs on a busy-but-healthy worker therefore
	// waits indefinitely (the probes keep succeeding), while a worker
	// that is connected but dead — SIGSTOP, network blackhole — is
	// detected within one stall period. Default 5m.
	StallTimeout time.Duration
	// Parallelism bounds the coordinator-side analysis stage (0 =
	// GOMAXPROCS). It never affects results.
	Parallelism int

	// UnitsPerWorker is the target number of work units per worker the
	// planner splits a job into (default 4). More units than workers is
	// what makes stealing work: a fast worker naturally drains the tail
	// a slow one would otherwise stall on. Granularity is capped at one
	// unit per workload×node column, so tiny grids yield fewer units.
	UnitsPerWorker int
	// ProbeInterval is the period of the background /healthz prober
	// (default 15s). A failing probe counts toward the breaker threshold
	// exactly like a failed unit, so dead workers are discovered between
	// jobs, not per unit per job; a succeeding probe is the only way an
	// open breaker closes, apart from an in-flight unit completing.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default: ProbeInterval
	// capped at 5s).
	ProbeTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count (units + probes)
	// that opens a worker's circuit breaker (default 3). An open breaker
	// refuses dispatch until a half-open probe succeeds.
	BreakerThreshold int
	// MaxUnitAttempts bounds how often one unit may fail — across all
	// workers, transient faults included — before the job fails
	// (default 4 + 2×workers).
	MaxUnitAttempts int
	// DownGrace is how long a job tolerates *all* breakers being open
	// with units still pending before failing (default 30s). It rides
	// out a transient full-fleet outage (a probe re-admitting any worker
	// resumes dispatch) — or an empty elastic fleet waiting for its
	// first registration — without hanging forever on a dead fleet.
	DownGrace time.Duration

	// Cells, when set, is the coordinator's shared cell-level result
	// cache: one workload×node column (all runs) per entry, keyed by the
	// cell's content address (see cluster.CellKey). service.RunUnits
	// probes it before dispatch — a unit whose every column is cached is
	// assembled coordinator-side and never leaves the coordinator — and
	// writes through after every unit completes, so overlapping suites
	// submitted over time pay only for the cells they add. It is also the
	// coordinator's only crash recovery: a job re-adopted after a restart
	// is planned afresh and its probe finds every column stored before the
	// crash, whatever the new tiling. Nil disables it (a re-adopted job
	// then re-runs every unit).
	Cells *cellcache.Store

	// Registry receives the executor's fleet metrics (per-worker unit
	// counters, breaker transitions, probe outcomes, lease events, merge
	// latency). Pass the same registry to the manager's service.Config so
	// one /metrics covers both layers. Nil uses a private registry.
	Registry *obs.Registry
	// Logger receives structured dispatch, breaker and membership log
	// lines. Nil discards them.
	Logger *slog.Logger
}

// dispatchPoll is the idle-loop tick of the dispatch workers: how often
// an idle dispatcher re-checks breaker state and the unit queue, and the
// supervisor the fleet's membership. Purely a liveness knob — units take
// orders of magnitude longer, and a settling job wakes both loops at once.
const dispatchPoll = 10 * time.Millisecond

// Executor fans a job's grid out across a dynamic fleet of bdservd
// workers — the HTTP Runner of service.RunUnits, implemented by a
// work-stealing dispatch loop — and merges the unit results
// deterministically. Its Execute method satisfies
// service.ExecuteFunc, so a stock service.Manager (queue, dedupe, result
// cache, job records, HTTP API) becomes a coordinator by plugging it in.
// Fleet membership lives in the registry: flag-seeded members plus
// runtime registrations under heartbeat leases; running jobs pick up
// joins and leaves within one dispatch poll tick. Close stops the
// background health prober.
type Executor struct {
	cfg Config
	reg *registry
	mx  *shardMetrics
	log *slog.Logger

	stop context.CancelFunc
	wg   sync.WaitGroup
}

// New builds an executor, seeds the fleet from cfg.Workers and starts
// the background health prober.
func New(cfg Config) (*Executor, error) {
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 5 * time.Minute
	}
	if cfg.UnitsPerWorker < 1 {
		cfg.UnitsPerWorker = 4
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 15 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = min(cfg.ProbeInterval, 5*time.Second)
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 3
	}
	if cfg.MaxUnitAttempts < 1 {
		n := len(cfg.Workers)
		if n < 1 {
			n = 1
		}
		cfg.MaxUnitAttempts = 4 + 2*n
	}
	if cfg.DownGrace <= 0 {
		cfg.DownGrace = 30 * time.Second
	}
	if cfg.HTTPClient == nil {
		// No overall timeout (event streams are long-lived), but bound
		// the silent phases of each request.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.ResponseHeaderTimeout = 30 * time.Second
		cfg.HTTPClient = &http.Client{Transport: tr}
	}
	mreg := cfg.Registry
	if mreg == nil {
		mreg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	e := &Executor{cfg: cfg, mx: newShardMetrics(mreg), log: logger}
	e.reg = newRegistry(cfg.BreakerThreshold, func(base string) *client.Client {
		c := client.New(base)
		c.HTTPClient = cfg.HTTPClient
		return c
	}, e.mx, logger)
	mreg.GaugeFunc("bd_fleet_workers",
		"Current fleet size (seeded plus leased members, expired leases swept).",
		func() float64 { return float64(len(e.reg.snapshot())) })
	for _, base := range cfg.Workers {
		if err := e.reg.seed(base); err != nil {
			return nil, err
		}
	}
	pctx, stop := context.WithCancel(context.Background())
	e.stop = stop
	e.wg.Add(1)
	go e.probeLoop(pctx)
	return e, nil
}

// Close stops the background health prober. In-flight Execute calls are
// unaffected.
func (e *Executor) Close() {
	e.stop()
	e.wg.Wait()
}

// unitQueue is the shared work-stealing state of one job: pending unit
// indexes, per-unit attempt accounting, and the terminal condition, which
// closes settledCh the moment it is reached. The fleet is elastic, so
// attempt accounting is keyed by worker URL — a worker that leaves and
// rejoins keeps its failure history for this job's units, while a
// genuinely new worker starts fresh. All methods are safe for concurrent
// dispatchers.
type unitQueue struct {
	mu          sync.Mutex
	pending     []int
	failedOn    []map[string]bool // unit → worker URLs that failed it
	attempts    []int
	inflight    int
	completed   int
	total       int
	maxAttempts int
	err         error
	stuckSince  time.Time
	onErr       context.CancelFunc // cancels sibling attempts on permanent failure
	settledCh   chan struct{}      // closed once the job is over; see settle
}

// newUnitQueue builds the queue over total pending units.
func newUnitQueue(total, maxAttempts int, onErr context.CancelFunc) *unitQueue {
	q := &unitQueue{
		failedOn:    make([]map[string]bool, total),
		attempts:    make([]int, total),
		total:       total,
		maxAttempts: maxAttempts,
		onErr:       onErr,
		settledCh:   make(chan struct{}),
	}
	for u := 0; u < total; u++ {
		q.failedOn[u] = make(map[string]bool)
		q.pending = append(q.pending, u)
	}
	q.settle()
	return q
}

// settle closes settledCh the first time the job is over: every unit
// merged, or a permanent failure recorded. Callers hold q.mu (or own q
// outright, as newUnitQueue does).
func (q *unitQueue) settle() {
	if q.completed != q.total && q.err == nil {
		return
	}
	select {
	case <-q.settledCh:
	default:
		close(q.settledCh)
	}
}

// wait blocks until the job settles, ctx ends, or d passes, whichever
// comes first: an idle loop's tick that still wakes the moment the last
// unit lands.
func (q *unitQueue) wait(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-q.settledCh:
	case <-ctx.Done():
	case <-t.C:
	}
}

// settled reports whether the job is over (all units merged, or failed).
func (q *unitQueue) settled() (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.completed == q.total || q.err != nil, q.err
}

// tryTake hands the worker at url its next unit, preferring units the
// worker has not previously failed. A unit this worker already failed is
// retried only when no *other available* current fleet member could
// still take it fresh — so a flaky worker never steals a re-queued unit
// back from a healthy sibling, while a lone (or last-standing) worker
// may retry transient faults, with the per-unit attempt budget bounding
// the loop. members is the current fleet snapshot (the caller takes it
// outside q.mu). stolen marks a re-queued unit another worker failed,
// now rescued by this one. Returns ok=false when nothing is
// dispatchable right now.
func (q *unitQueue) tryTake(url string, members []*workerState) (u int, stolen, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil || len(q.pending) == 0 {
		return 0, false, false
	}
	pick := -1
	for i, u := range q.pending {
		if !q.failedOn[u][url] {
			pick = i
			break
		}
	}
	if pick < 0 {
		for i, u := range q.pending {
			fresh := false
			for _, w := range members {
				if w.url != url && !q.failedOn[u][w.url] && !w.departed() && w.available() {
					fresh = true
					break
				}
			}
			if !fresh {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return 0, false, false
	}
	u = q.pending[pick]
	q.pending = append(q.pending[:pick], q.pending[pick+1:]...)
	q.inflight++
	q.stuckSince = time.Time{}
	stolen = len(q.failedOn[u]) > 0 && !q.failedOn[u][url]
	return u, stolen, true
}

// attemptNumber is the 1-based ordinal the next attempt of unit u runs
// as: previously charged (failed) attempts plus one. Read at take time
// so the attempt attribute on a unit's spans matches the queue's
// bookkeeping — the invariant the chaostest trace property pins.
func (q *unitQueue) attemptNumber(u int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.attempts[u] + 1
}

// attemptCounts snapshots the charged (failed) attempt count per unit.
func (q *unitQueue) attemptCounts() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]int(nil), q.attempts...)
}

// complete marks a unit merged.
func (q *unitQueue) complete(u int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight--
	q.completed++
	q.settle()
}

// release returns a unit taken by an attempt that was aborted by job
// cancellation rather than worker failure — no attempt is charged.
func (q *unitQueue) release(u int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight--
	q.pending = append(q.pending, u)
}

// fail charges a failed attempt to the unit and re-queues it; a unit
// exhausting its attempt budget permanently fails the job.
func (q *unitQueue) fail(u int, url string, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight--
	q.attempts[u]++
	q.failedOn[u][url] = true
	if q.attempts[u] >= q.maxAttempts {
		if q.err == nil {
			q.err = fmt.Errorf("shard: unit %d exhausted %d attempts across %d worker(s): %w",
				u, q.attempts[u], len(q.failedOn[u]), err)
			q.settle()
			q.onErr()
		}
		return
	}
	q.pending = append(q.pending, u)
}

// stuckCheck fails the job if every worker's breaker has refused dispatch
// — with units pending and none in flight — for longer than grace. Called
// from dispatchers idling on an unavailable worker; any successful
// dispatch or probe-driven re-admission resets the clock.
func (q *unitQueue) stuckCheck(allUnavailable func() bool, grace time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil || q.inflight > 0 || len(q.pending) == 0 || !allUnavailable() {
		q.stuckSince = time.Time{}
		return
	}
	if q.stuckSince.IsZero() {
		q.stuckSince = time.Now()
		return
	}
	if time.Since(q.stuckSince) >= grace {
		q.err = fmt.Errorf("shard: %d unit(s) exhausted dispatch: no available worker in the fleet for %v",
			len(q.pending), grace)
		q.settle()
		q.onErr()
	}
}

// jobRun bundles the shared per-job dispatch state handed to every
// dispatcher goroutine: the units RunUnits left to the fleet, indexed
// like its callbacks, and the queue over them.
type jobRun struct {
	id     string            // job ID, tagging dispatch log lines
	tc     *obs.TraceContext // nil when tracing is disabled
	units  []service.PendingUnit
	report func(i, done int)                  // unit i's cells done so far
	done   func(i int, cells [][][][]float64) // unit i's validated grid
	q      *unitQueue
}

// Execute implements service.ExecuteFunc: plan fine-grained units → run
// them through service.RunUnits with the fleet as its Runner → merge →
// EncodeResult (for analyze jobs, the statistical pipeline runs once,
// coordinator-side). The merged result is byte-identical to a
// single-daemon run of the same spec: per-cell seeds are functions of
// absolute grid coordinates, cells are re-assembled in canonical order
// regardless of which worker ran which unit, and the node/run reduction
// and analysis go through the same code path.
//
// Crash recovery needs nothing extra: a job the manager re-adopts after a
// restart is planned from the current fleet like a fresh one, and the
// cell-cache probe builds every unit whose columns were stored before the
// crash. Cell keys depend only on the spec and the absolute grid
// coordinates, never on the tiling, so recovery works per column.
func (e *Executor) Execute(ctx context.Context, spec service.JobSpec, progress core.Progress) ([]byte, error) {
	jobID, _ := spec.ID()
	tc := obs.TraceFromContext(ctx)
	parts := len(e.reg.snapshot()) * e.cfg.UnitsPerWorker
	if parts < e.cfg.UnitsPerWorker {
		parts = e.cfg.UnitsPerWorker
	}
	planSpan := tc.StartSpan("plan")
	units, err := Plan(spec, parts)
	var suite []workloads.Workload
	if err == nil {
		suite, err = spec.ResolveSuite()
	}
	if err != nil {
		planSpan.EndErr(err)
		return nil, err
	}
	planSpan.SetAttr("units", strconv.Itoa(len(units)))
	planSpan.End()

	run := &jobRun{id: jobID, tc: tc}
	oms, err := service.RunUnits(ctx, spec, suite, units, e.cfg.Cells,
		func(ctx context.Context, pending []service.PendingUnit, report func(i, done int), done func(i int, cells [][][][]float64)) error {
			run.units, run.report, run.done = pending, report, done
			return e.runUnits(ctx, run)
		}, progress)
	if err != nil {
		return nil, err
	}
	if tc != nil {
		// One instant per planned unit carrying the queue's final attempt
		// bookkeeping: "attempts" is the charged (failed) count, so the
		// winning exec span's attempt attribute is always attempts+1 — the
		// cross-check the chaostest trace property asserts. A unit the cell
		// cache covered ran no attempt.
		attempts := make([]int, len(units))
		if run.q != nil {
			for i, n := range run.q.attemptCounts() {
				attempts[run.units[i].Index] = n
			}
		}
		for u, n := range attempts {
			tc.Instant("unit-done", map[string]string{
				"unit":     strconv.Itoa(u),
				"attempts": strconv.Itoa(n),
			})
		}
	}

	mergeSpan := tc.StartSpan("merge")
	mergeStart := time.Now()
	om, err := merge(spec, suite, units, oms)
	e.mx.mergeDuration.Observe(time.Since(mergeStart).Seconds())
	if err != nil {
		mergeSpan.EndErr(err)
		return nil, err
	}
	mergeSpan.SetAttr("units", strconv.Itoa(len(units)))
	mergeSpan.End()
	e.log.Info("sharded job units merged", "job", jobID,
		"units", len(units), "merge_duration", time.Since(mergeStart))
	return service.EncodeResult(ctx, spec, om, e.cfg.Parallelism, progress)
}

// runUnits is the fleet as a service.Runner: the work-stealing dispatch
// loop over run's units. One goroutine per fleet member pulls its next
// unit from the shared queue the moment the previous one completes — fast
// workers steal the tail a slow one would otherwise stall on. The
// supervisor wakes the moment the queue settles, and otherwise polls the
// registry so membership changes land mid-job: a joining worker gets a
// dispatcher (and starts stealing pending units) within one poll tick; a
// leaving worker's dispatcher context is canceled through its gone
// channel, releasing its in-flight unit back to the queue without
// charging an attempt. Units from failed or stalled workers are
// re-queued; a permanent failure (attempt budget, dead fleet) cancels
// the siblings.
func (e *Executor) runUnits(ctx context.Context, run *jobRun) error {
	e.log.Info("sharded job dispatch starting", "job", run.id,
		"units", len(run.units), "workers", len(e.reg.snapshot()))
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	q := newUnitQueue(len(run.units), e.cfg.MaxUnitAttempts, cancel)
	run.q = q
	tc := run.tc
	var wg sync.WaitGroup
	active := make(map[*workerState]bool)
	// fleet tracks membership for the trace: a join/leave instant per
	// change, so a trace read post-mortem shows which workers the job
	// could even have dispatched to at any point in its life.
	fleet := make(map[string]bool)
	for {
		if done, _ := q.settled(); done || dctx.Err() != nil {
			break
		}
		members := e.reg.snapshot()
		if tc != nil {
			seen := make(map[string]bool, len(members))
			for _, w := range members {
				seen[w.url] = true
				if !fleet[w.url] {
					fleet[w.url] = true
					tc.Instant("worker-join", map[string]string{"worker": w.url})
				}
			}
			for url := range fleet {
				if !seen[url] {
					delete(fleet, url)
					tc.Instant("worker-leave", map[string]string{"worker": url})
				}
			}
		}
		for _, w := range members {
			if active[w] || w.departed() {
				continue
			}
			active[w] = true
			wctx, wcancel := context.WithCancel(dctx)
			wg.Add(1)
			go func(w *workerState) {
				defer wg.Done()
				defer wcancel()
				go func() {
					select {
					case <-w.gone:
						wcancel()
					case <-wctx.Done():
					}
				}()
				e.dispatch(wctx, w, run)
			}(w)
		}
		if len(members) == 0 {
			// Nobody to dispatch: only the supervisor can run the dead-
			// fleet clock.
			q.stuckCheck(e.allUnavailable, e.cfg.DownGrace)
		}
		q.wait(dctx, dispatchPoll)
	}
	cancel()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, qerr := q.settled(); qerr != nil {
		e.log.Warn("sharded job failed", "job", run.id, "error", qerr)
		return qerr
	}
	return nil
}

// dispatch is one worker's dispatch loop: while its breaker admits it,
// pull the next unit, run it, and report the outcome to the queue and the
// worker's breaker. It returns when the job settles (all units done or
// permanent failure), the job context is canceled, or the worker leaves
// the fleet (its gone channel cancels ctx).
func (e *Executor) dispatch(ctx context.Context, w *workerState, run *jobRun) {
	q := run.q
	for {
		if ctx.Err() != nil || w.departed() {
			return
		}
		if done, _ := q.settled(); done {
			return
		}
		if !w.available() {
			// Open or half-open: only the prober (or an in-flight unit
			// completing) re-admits the worker.
			q.stuckCheck(e.allUnavailable, e.cfg.DownGrace)
			sleepCtx(ctx, dispatchPoll)
			continue
		}
		u, stolen, ok := q.tryTake(w.url, e.reg.snapshot())
		if !ok {
			// Nothing dispatchable for this worker right now: siblings
			// hold the remaining units (in flight, or re-queued units
			// this worker failed that a fresh worker should retry), or
			// the job is settling.
			q.wait(ctx, dispatchPoll)
			continue
		}
		e.mx.unitsDispatched.With(w.url).Inc()
		if stolen {
			e.mx.unitsStolen.With(w.url).Inc()
			e.log.Debug("unit rescued from failed sibling", "job", run.id, "unit", u, "worker", w.url)
		}
		attempt := q.attemptNumber(u)
		unitSpan := run.tc.StartSpan("unit")
		unitSpan.SetAttr("unit", strconv.Itoa(run.units[u].Index))
		unitSpan.SetAttr("attempt", strconv.Itoa(attempt))
		unitSpan.SetAttr("worker", w.url)
		if stolen {
			unitSpan.SetAttr("stolen", "true")
		}
		attemptStart := time.Now()
		cells, err := e.runUnitOn(ctx, w, run, u, unitSpan.ID(), attempt, stolen)
		if err == nil {
			// The unit validated: RunUnits writes its missed columns
			// through to the shared cell cache.
			run.done(u, cells)
			w.recordSuccess()
			e.mx.unitDuration.With(w.url).Observe(time.Since(attemptStart).Seconds())
			unitSpan.End()
			q.complete(u)
			continue
		}
		if ctx.Err() != nil || w.departed() {
			// Canceled mid-attempt — job shutdown or the worker leaving
			// the fleet. Either way the error is a symptom, not a verdict
			// on the unit: release it without charging an attempt.
			unitSpan.SetAttr("status", "released")
			unitSpan.End()
			q.release(u)
			return
		}
		unitSpan.EndErr(err)
		w.recordFailure(err)
		if run.tc != nil && !w.available() {
			// This failure tripped (or kept) the breaker open: worth a
			// marker in the trace — it explains why following units land
			// on siblings.
			run.tc.Instant("breaker-open", map[string]string{"worker": w.url})
		}
		q.fail(u, w.url, fmt.Errorf("worker %s: %w", w.url, err))
		e.log.Warn("unit attempt failed", "job", run.id, "unit", u, "worker", w.url, "error", err)
		// Brief backoff after a failure: gives a healthy sibling first
		// claim on the re-queued unit and keeps a fast-failing worker
		// (connection refused) from spinning.
		sleepCtx(ctx, dispatchPoll)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// unitWatch is the stall watchdog state for one unit attempt: the last
// activity timestamp plus an optional liveness probe installed once the
// worker-side job ID is known.
type unitWatch struct {
	last  atomic.Int64
	probe atomic.Value // func(context.Context) error
}

func (w *unitWatch) touch() { w.last.Store(time.Now().UnixNano()) }

// runUnitOn runs one unit attempt against one worker: submit, stream
// progress events into the aggregate, fetch and decode the observation
// matrix, and sanity-check its shape against the plan. The whole
// attempt runs under a stall
// watchdog: when the worker goes silent past StallTimeout, its job
// status is probed, and only an unanswered probe abandons the attempt —
// so a healthy worker whose queue is merely busy is never failed over,
// while a dead-but-connected one is.
func (e *Executor) runUnitOn(ctx context.Context, w *workerState, run *jobRun, u int, unitSpanID string, attempt int, stolen bool) ([][][][]float64, error) {
	stall := e.cfg.StallTimeout
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	uw := &unitWatch{}
	uw.touch()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := stall / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-actx.Done():
				return
			case <-t.C:
				if time.Since(time.Unix(0, uw.last.Load())) <= stall {
					continue
				}
				// Silent past the bound: distinguish "busy" from "dead"
				// with a status probe before giving up on the worker.
				if p, ok := uw.probe.Load().(func(context.Context) error); ok && p != nil {
					pctx, pcancel := context.WithTimeout(actx, stall/4)
					err := p(pctx)
					pcancel()
					if err == nil {
						uw.touch()
						continue
					}
				}
				cancel()
				return
			}
		}
	}()

	cells, err := e.attemptUnit(actx, w.client, run, u, unitSpanID, attempt, stolen, uw)
	if err != nil && actx.Err() != nil && ctx.Err() == nil {
		// The watchdog (not the job) aborted the attempt. Report it as a
		// worker *failure* — deliberately not wrapping the underlying
		// context.Canceled, which would make an all-workers-stalled job
		// settle as canceled instead of failed.
		err = fmt.Errorf("worker unresponsive (no activity for %v and status probe failed): %v", stall, err)
	}
	return cells, err
}

// attemptUnit is the watchdog-free body of one unit attempt. The attempt
// is traced as three children of the unit span — dispatch (the submit
// RPC), exec (the worker running the unit, or a cache hit), validate
// (result fetch + decode + shape check) — and the trace context rides to
// the worker in the submission's X-BD-Trace header, so the worker's own
// stage spans join this trace and are imported under the exec span once
// the unit validates.
func (e *Executor) attemptUnit(ctx context.Context, c *client.Client, run *jobRun, u int, unitSpanID string, attempt int, stolen bool, w *unitWatch) ([][][][]float64, error) {
	tc := run.tc
	unit := run.units[u]
	sub := unit.Spec
	unitAttr := strconv.Itoa(unit.Index)
	var traceParent string
	if tc != nil {
		traceParent = obs.FormatTraceParent(tc.TraceID, unitSpanID)
	}
	dispatchSpan := tc.StartChild(unitSpanID, "dispatch")
	dispatchSpan.SetAttr("unit", unitAttr)
	st, err := c.SubmitSpecTraced(ctx, sub, traceParent)
	if err != nil {
		dispatchSpan.EndErr(err)
		return nil, err
	}
	dispatchSpan.End()
	w.touch()
	// With the job ID known, silence can be disambiguated: the watchdog
	// probes the job's status and only an unanswered probe means a dead
	// worker (a queued unit on a busy worker answers and keeps waiting).
	w.probe.Store(func(pctx context.Context) error {
		_, err := c.Job(pctx, st.ID)
		return err
	})
	execSpan := tc.StartChild(unitSpanID, "exec")
	execSpan.SetAttr("unit", unitAttr)
	execSpan.SetAttr("attempt", strconv.Itoa(attempt))
	execSpan.SetAttr("worker", c.BaseURL)
	if stolen {
		execSpan.SetAttr("stolen", "true")
	}
	switch st.State {
	case service.StateDone:
		// Cache hit on the worker: the matrix is immediately fetchable.
		execSpan.SetAttr("cache_hit", "true")
	case service.StateFailed, service.StateCanceled:
		err := fmt.Errorf("unit job %s born %s: %s", st.ID, st.State, st.Error)
		execSpan.EndErr(err)
		return nil, err
	default:
		// Follow the worker's NDJSON stream, multiplexing its per-cell
		// progress into the coordinator's merged stream. The worker job
		// is deliberately NOT canceled when this attempt is abandoned:
		// worker jobs are content-addressed and deduplicated, so another
		// coordinator job (or a concurrent coordinator) may be following
		// the very same worker job, and its result lands in the worker's
		// cache either way — canceling would kill an innocent consumer's
		// unit to save already-mostly-spent compute.
		err := c.Events(ctx, st.ID, func(ev service.Event) error {
			w.touch()
			switch ev.Type {
			case "progress":
				run.report(u, ev.Done)
			case "error":
				return fmt.Errorf("unit job %s failed: %s", st.ID, ev.Error)
			case "state":
				if ev.State == service.StateCanceled {
					return fmt.Errorf("unit job %s canceled on worker", st.ID)
				}
			}
			return nil
		})
		if err != nil {
			execSpan.EndErr(err)
			return nil, err
		}
	}
	execSpan.End()

	validateSpan := tc.StartChild(unitSpanID, "validate")
	validateSpan.SetAttr("unit", unitAttr)
	data, err := c.Result(ctx, st.ID)
	if err != nil {
		validateSpan.EndErr(err)
		return nil, err
	}
	w.touch()
	cells, err := decodeUnitResult(data, unit)
	if err != nil {
		validateSpan.EndErr(err)
		return nil, err
	}
	validateSpan.End()
	if tc != nil {
		// Best-effort import of the worker's spans for this unit job:
		// they nest under the exec span that drove them. A worker cache
		// hit serves spans tagged with some older trace's ID — Import
		// filters those out. Failure here never fails the unit; the
		// trace just lacks the worker's interior detail.
		if export, terr := c.Trace(ctx, st.ID); terr == nil {
			tc.Import(export.Spans, execSpan.ID(), c.BaseURL, map[string]string{"unit": unitAttr})
		}
	}
	return cells, nil
}

// decodeUnitResult unmarshals one unit's raw result bytes and checks the
// worker's observation sub-matrix against the unit: workload identity and
// order, run/node extents, node offset, and the exact canonical metric
// schema. Catching a wrong-shape response here makes it a *unit-level*
// failure — re-queued and retried on another worker — instead of a
// job-level merge error, and stops a mixed-version or corrupted worker
// from feeding bad cells into a confidently-hashed merged result.
func decodeUnitResult(data []byte, unit service.PendingUnit) ([][][][]float64, error) {
	var oj benchio.ObservationsJSON
	if err := json.Unmarshal(data, &oj); err != nil {
		return nil, fmt.Errorf("decoding unit result: %w", err)
	}
	om, err := oj.Observations() // consistent extents, one vector per metric
	if err != nil {
		return nil, err
	}
	sub := unit.Spec.Cluster
	switch {
	case !slices.Equal(om.Labels, unit.Workloads):
		return nil, fmt.Errorf("unit result workloads %q, want %q", om.Labels, unit.Workloads)
	case om.Runs() != sub.Runs || om.Nodes() != unit.Nodes:
		return nil, fmt.Errorf("unit result extents %d runs × %d nodes, want %d×%d",
			om.Runs(), om.Nodes(), sub.Runs, unit.Nodes)
	case om.NodeOffset != sub.NodeOffset:
		return nil, fmt.Errorf("unit result node offset %d, want %d", om.NodeOffset, sub.NodeOffset)
	case !slices.Equal(om.Metrics, perf.MetricNames()):
		return nil, fmt.Errorf("unit result metrics %q differ from the canonical schema", om.Metrics)
	}
	return om.Cells, nil
}

// merge re-assembles the unit matrices into the full grid in canonical
// cell order — workloads in suite order, then runs, then absolute node
// index — verifying exact coverage. RunUnits built every unit matrix
// over the canonical metric schema, and each worker's result was checked
// against it (decodeUnitResult).
func merge(spec service.JobSpec, suite []workloads.Workload, units []Shard, oms []*core.ObservationMatrix) (*core.ObservationMatrix, error) {
	runs, nodes := spec.Cluster.Runs, spec.Cluster.SlaveNodes
	names := make([]string, len(suite))
	cells := make([][][][]float64, len(suite))
	for w := range cells {
		names[w] = suite[w].Name
		cells[w] = make([][][]float64, runs)
		for r := range cells[w] {
			cells[w][r] = make([][]float64, nodes)
		}
	}
	for si, sh := range units {
		om := oms[si]
		for wi := range om.Labels {
			w := sh.WorkloadOffset + wi
			for r := 0; r < runs; r++ {
				for nd := 0; nd < sh.Nodes; nd++ {
					tgt := sh.NodeOffset + nd
					if tgt >= nodes || cells[w][r][tgt] != nil {
						return nil, fmt.Errorf("shard: cell [%d][%d][%d] double-covered or out of range", w, r, tgt)
					}
					cells[w][r][tgt] = om.Cells[wi][r][nd]
				}
			}
		}
	}
	for w := range cells {
		for r := range cells[w] {
			for nd := range cells[w][r] {
				if cells[w][r][nd] == nil {
					return nil, fmt.Errorf("shard: cell [%d][%d][%d] uncovered by the plan", w, r, nd)
				}
			}
		}
	}
	return &core.ObservationMatrix{
		Labels:     names,
		Metrics:    perf.MetricNames(),
		Cells:      cells,
		NodeOffset: spec.Cluster.NodeOffset,
	}, nil
}
