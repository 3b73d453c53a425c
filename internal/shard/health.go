package shard

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service/client"
)

// throughputWindow is the sliding window over which per-worker unit
// throughput (units/sec on /v1/workers) is computed.
const throughputWindow = 60 * time.Second

// BreakerState is the circuit-breaker state of one worker.
type BreakerState string

const (
	// BreakerClosed: the worker is believed healthy and receives units.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the worker accumulated BreakerThreshold consecutive
	// failures (unit dispatch or health probes) and receives no units
	// until a probe succeeds.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the breaker was open and a re-admission probe is
	// in flight. The worker still receives no units; the probe's outcome
	// moves the breaker to closed or back to open.
	BreakerHalfOpen BreakerState = "half-open"
)

// WorkerStatus is the externally visible health snapshot of one worker,
// served on the coordinator's /v1/workers endpoint. The lease fields
// expose membership churn: how the worker joined (flag vs runtime
// registration), when it last heartbeat, and how much of its lease
// remains before it is swept from the fleet.
type WorkerStatus struct {
	URL                 string       `json:"url"`
	Breaker             BreakerState `json:"breaker"`
	ConsecutiveFailures int          `json:"consecutive_failures"`
	LastError           string       `json:"last_error,omitempty"`
	LastProbe           *time.Time   `json:"last_probe,omitempty"`
	LastTransition      *time.Time   `json:"last_transition,omitempty"`
	UnitsDone           int          `json:"units_done"`
	UnitsFailed         int          `json:"units_failed"`
	Probes              int          `json:"probes"`
	ProbeFailures       int          `json:"probe_failures"`
	// UnitsPerSecond is the worker's unit-completion throughput over the
	// trailing 60-second window — the live "who is pulling their weight"
	// signal next to the lifetime UnitsDone counter.
	UnitsPerSecond float64 `json:"units_per_second"`
	// UnitDurationP50/P95/P99 are estimated quantiles of this worker's
	// successful unit wall-clock times (from the fixed buckets of
	// bd_worker_unit_duration_seconds); zero until a unit completes.
	UnitDurationP50 float64 `json:"unit_duration_p50_seconds,omitempty"`
	UnitDurationP95 float64 `json:"unit_duration_p95_seconds,omitempty"`
	UnitDurationP99 float64 `json:"unit_duration_p99_seconds,omitempty"`

	// Source is "flag" (seeded at startup, permanent) or "registered"
	// (joined at runtime under a heartbeat lease).
	Source       string    `json:"source"`
	RegisteredAt time.Time `json:"registered_at"`
	// LastHeartbeat is the most recent lease renewal (nil for flag
	// workers that have never been POSTed a heartbeat).
	LastHeartbeat *time.Time `json:"last_heartbeat,omitempty"`
	// TTLSeconds is the lease length; 0 means the membership never
	// expires (flag workers).
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// TTLRemainingSeconds counts down to lease expiry (nil for
	// non-expiring members). Negative values never appear: an expired
	// member is swept before it can be listed.
	TTLRemainingSeconds *float64 `json:"ttl_remaining_seconds,omitempty"`
}

// workerState is the coordinator's per-worker record: the client handle
// plus breaker, counter and lease state shared between the dispatch
// loops, the background health prober and the membership registry.
type workerState struct {
	url       string
	client    *client.Client
	threshold int

	// gone closes exactly once, when the worker leaves the fleet
	// (deregistration or lease expiry). Dispatch loops watch it to
	// release in-flight units immediately instead of waiting out a
	// stall timeout.
	gone     chan struct{}
	goneOnce sync.Once

	// mx/log are the coordinator's shared observability hooks.
	mx  *shardMetrics
	log *slog.Logger

	mu             sync.Mutex
	state          BreakerState
	consecFails    int
	lastErr        string
	lastProbe      time.Time
	lastTransition time.Time
	unitsDone      int
	unitsFailed    int
	probes         int
	probeFails     int
	doneTimes      []time.Time // unit completions inside throughputWindow

	source        string
	registeredAt  time.Time
	lastHeartbeat time.Time
	ttl           time.Duration // 0 = never expires
}

func newWorkerState(url string, c *client.Client, threshold int, mx *shardMetrics, log *slog.Logger) *workerState {
	return &workerState{
		url: url, client: c, threshold: threshold, mx: mx, log: log,
		state: BreakerClosed, gone: make(chan struct{}),
	}
}

// depart marks the worker as having left the fleet; idempotent.
func (w *workerState) depart() {
	w.goneOnce.Do(func() { close(w.gone) })
}

// departed reports whether the worker has left the fleet.
func (w *workerState) departed() bool {
	select {
	case <-w.gone:
		return true
	default:
		return false
	}
}

// available reports whether the dispatch loop may hand this worker a
// unit. Open and half-open breakers both refuse: a worker is re-admitted
// only through a successful probe (or an in-flight unit completing, which
// proves the worker alive just as well).
func (w *workerState) available() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state == BreakerClosed
}

func (w *workerState) transitionLocked(s BreakerState) {
	if w.state != s {
		from := w.state
		w.state = s
		w.lastTransition = time.Now()
		w.mx.breakerTransitions.With(w.url, string(s)).Inc()
		w.log.Info("breaker transition", "worker", w.url, "from", from, "to", s, "consecutive_failures", w.consecFails, "last_error", w.lastErr)
	}
}

// trimDoneTimesLocked drops completion timestamps older than the
// throughput window. Callers hold w.mu.
func (w *workerState) trimDoneTimesLocked(now time.Time) {
	cut := 0
	for cut < len(w.doneTimes) && now.Sub(w.doneTimes[cut]) > throughputWindow {
		cut++
	}
	if cut > 0 {
		w.doneTimes = append(w.doneTimes[:0], w.doneTimes[cut:]...)
	}
}

// recordSuccess notes a successfully completed unit: the worker is
// demonstrably alive, so the failure streak resets and an open breaker
// closes (an in-flight unit finishing after the breaker opened is as good
// a liveness proof as a probe).
func (w *workerState) recordSuccess() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.consecFails = 0
	w.unitsDone++
	now := time.Now()
	w.doneTimes = append(w.doneTimes, now)
	w.trimDoneTimesLocked(now)
	w.mx.unitsDone.With(w.url).Inc()
	w.transitionLocked(BreakerClosed)
}

// recordFailure notes a failed unit attempt; threshold consecutive
// failures open the breaker.
func (w *workerState) recordFailure(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.unitsFailed++
	w.consecFails++
	w.lastErr = err.Error()
	w.mx.unitsFailed.With(w.url).Inc()
	if w.state == BreakerHalfOpen || w.consecFails >= w.threshold {
		w.transitionLocked(BreakerOpen)
	}
}

// beginProbe marks the probe start; on an open breaker this is the
// half-open trial.
func (w *workerState) beginProbe() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.probes++
	if w.state == BreakerOpen {
		w.transitionLocked(BreakerHalfOpen)
	}
}

// finishProbe applies a probe outcome: success re-admits the worker
// (closes the breaker, resets the streak); failure re-opens a half-open
// breaker and counts toward the threshold of a closed one.
func (w *workerState) finishProbe(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lastProbe = time.Now()
	outcome := "ok"
	if err != nil {
		outcome = "fail"
	}
	w.mx.probes.With(w.url, outcome).Inc()
	if err == nil {
		w.consecFails = 0
		w.transitionLocked(BreakerClosed)
		return
	}
	w.probeFails++
	w.consecFails++
	w.lastErr = err.Error()
	if w.state == BreakerHalfOpen || w.consecFails >= w.threshold {
		w.transitionLocked(BreakerOpen)
	}
}

func (w *workerState) snapshot() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.trimDoneTimesLocked(time.Now())
	st := WorkerStatus{
		URL:                 w.url,
		Breaker:             w.state,
		ConsecutiveFailures: w.consecFails,
		LastError:           w.lastErr,
		UnitsDone:           w.unitsDone,
		UnitsFailed:         w.unitsFailed,
		Probes:              w.probes,
		ProbeFailures:       w.probeFails,
		UnitsPerSecond:      float64(len(w.doneTimes)) / throughputWindow.Seconds(),
		Source:              w.source,
		RegisteredAt:        w.registeredAt,
		TTLSeconds:          w.ttl.Seconds(),
	}
	if !w.lastProbe.IsZero() {
		t := w.lastProbe
		st.LastProbe = &t
	}
	if !w.lastTransition.IsZero() {
		t := w.lastTransition
		st.LastTransition = &t
	}
	if !w.lastHeartbeat.IsZero() {
		t := w.lastHeartbeat
		st.LastHeartbeat = &t
	}
	if w.ttl > 0 {
		rem := (w.ttl - time.Since(w.lastHeartbeat)).Seconds()
		if rem < 0 {
			rem = 0
		}
		st.TTLRemainingSeconds = &rem
	}
	return st
}

// WorkerStatuses returns the current health + lease snapshot of every
// fleet member, in join order — the body of bdcoord's GET /v1/workers
// endpoint, and the coordinator-side half of every /v1/status fleet row.
func (e *Executor) WorkerStatuses() []WorkerStatus {
	return e.workerRows(e.reg.snapshot())
}

// workerRows is the one builder of fleet rows: each member's snapshot
// plus its unit-duration quantiles, in the order of members. Callers
// pass a single registry snapshot, so row i always describes members[i].
func (e *Executor) workerRows(members []*workerState) []WorkerStatus {
	// Per-worker latency quantiles come from the executor-owned histogram
	// family, keyed by the same URL label the counters use.
	durs := map[string]obs.HistogramSnapshot{}
	e.mx.unitDuration.Each(func(labels []string, snap obs.HistogramSnapshot) {
		if len(labels) == 1 && snap.Count > 0 {
			durs[labels[0]] = snap
		}
	})
	out := make([]WorkerStatus, len(members))
	for i, w := range members {
		out[i] = w.snapshot()
		if snap, ok := durs[out[i].URL]; ok {
			q := snap.Quantiles(0.50, 0.95, 0.99)
			out[i].UnitDurationP50, out[i].UnitDurationP95, out[i].UnitDurationP99 = q[0], q[1], q[2]
		}
	}
	return out
}

// probeLoop is the background health prober: every ProbeInterval it
// probes all workers' /healthz concurrently. A failing probe counts
// toward the breaker threshold exactly like a failed unit, so a worker
// dying *between* jobs is discovered (and its breaker opened) before any
// job dispatches units to it; a succeeding probe on an open breaker is
// the half-open trial that re-admits a recovered worker.
func (e *Executor) probeLoop(ctx context.Context) {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			e.probeAll(ctx)
		}
	}
}

// probeAll probes every current fleet member once, concurrently,
// bounding each probe at ProbeTimeout. The membership snapshot sweeps
// expired leases, so departed workers are never probed — and a member
// departing mid-probe just has a harmless verdict recorded on a state
// nothing dispatches to anymore.
func (e *Executor) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range e.reg.snapshot() {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			w.beginProbe()
			pctx, cancel := context.WithTimeout(ctx, e.cfg.ProbeTimeout)
			err := w.client.Health(pctx)
			cancel()
			if ctx.Err() != nil {
				return // shutting down: not a verdict on the worker
			}
			w.finishProbe(err)
		}(w)
	}
	wg.Wait()
}

// allUnavailable reports whether every current fleet member's breaker
// refuses dispatch — an empty fleet counts as unavailable — the
// condition under which a job with pending units can make no progress.
func (e *Executor) allUnavailable() bool {
	for _, w := range e.reg.snapshot() {
		if w.available() {
			return false
		}
	}
	return true
}
