package shard

import (
	"errors"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// gatedWorker fronts a real worker with a health toggle and a job-POST
// counter: flipping healthy=false simulates a worker that died *between*
// jobs (its /healthz fails) while still counting any unit the
// coordinator wrongly sends it. hold, when set, runs before a healthy
// worker forwards a unit submission.
type gatedWorker struct {
	url      string
	healthy  atomic.Bool
	jobPosts atomic.Int64
}

func startGatedWorker(t *testing.T, hold func()) *gatedWorker {
	t.Helper()
	backend := startWorker(t, service.Config{Workers: 2, Parallelism: 2})
	bu, err := url.Parse(backend.url)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(bu)
	g := &gatedWorker{}
	g.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !g.healthy.Load() {
			http.Error(w, `{"error":"simulated dead worker"}`, http.StatusServiceUnavailable)
			return
		}
		proxy.ServeHTTP(w, r)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		g.jobPosts.Add(1)
		if !g.healthy.Load() {
			// A dead worker refuses work, not just probes.
			http.Error(w, `{"error":"simulated dead worker"}`, http.StatusServiceUnavailable)
			return
		}
		if hold != nil {
			hold()
		}
		proxy.ServeHTTP(w, r)
	})
	mux.Handle("/", proxy)
	srv := startHTTP(t, mux)
	g.url = srv
	return g
}

// startHTTP serves h on a loopback port and returns its base URL.
func startHTTP(t *testing.T, h http.Handler) string {
	t.Helper()
	w := &http.Server{Handler: h}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	t.Cleanup(func() { w.Close() })
	return "http://" + ln.Addr().String()
}

func waitBreaker(t *testing.T, exec *Executor, wi int, want BreakerState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if exec.WorkerStatuses()[wi].Breaker == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("worker %d breaker never became %s (now %s)", wi, want, exec.WorkerStatuses()[wi].Breaker)
}

// TestBreakerBlocksDeadWorkerBetweenJobs is the regression test for
// proactive failure discovery: a worker that dies *between* jobs must be
// taken out of rotation by the health prober before the next job — it
// receives zero unit submissions while its breaker is open — and a
// successful half-open probe re-admits it afterwards.
func TestBreakerBlocksDeadWorkerBetweenJobs(t *testing.T) {
	flappy := startGatedWorker(t, nil)
	steady := startWorker(t, service.Config{Workers: 2, Parallelism: 2})

	cfg := fastCoordConfig([]string{flappy.url, steady.url})
	cfg.ProbeInterval = 25 * time.Millisecond
	cfg.BreakerThreshold = 2
	exec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	coord, err := service.New(service.Config{Workers: 2, Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// Job 1: both workers healthy; the flappy one participates.
	spec := tinySpec()
	fin, _ := runToDone(t, coord, spec)
	if fin.State != service.StateDone {
		t.Fatalf("warm-up job finished %s", fin.State)
	}
	if flappy.jobPosts.Load() == 0 {
		t.Fatal("healthy flappy worker received no unit submissions")
	}

	// The worker dies between jobs: only the prober can notice.
	flappy.healthy.Store(false)
	waitBreaker(t, exec, 0, BreakerOpen, 5*time.Second)
	st := exec.WorkerStatuses()[0]
	if st.ProbeFailures == 0 || st.LastError == "" {
		t.Errorf("open breaker carries no probe-failure evidence: %+v", st)
	}

	// Job 2 (a different grid): every unit must go to the steady worker;
	// the dead one must not see a single submission.
	flappy.jobPosts.Store(0)
	spec2 := tinySpec("H-Sort", "S-Sort", "H-Grep")
	fin2, _ := runToDone(t, coord, spec2)
	if fin2.State != service.StateDone {
		t.Fatalf("job with open breaker finished %s: %s", fin2.State, fin2.Error)
	}
	if n := flappy.jobPosts.Load(); n != 0 {
		t.Errorf("worker with open breaker received %d unit submissions, want 0", n)
	}

	// Recovery: health returns, the half-open probe re-admits the worker,
	// and a fresh job uses it again.
	flappy.healthy.Store(true)
	waitBreaker(t, exec, 0, BreakerClosed, 5*time.Second)
	flappy.jobPosts.Store(0)
	spec3 := tinySpec("H-Sort", "S-Sort", "H-Grep", "S-Grep")
	spec3.Cluster.SlaveNodes = 3
	fin3, _ := runToDone(t, coord, spec3)
	if fin3.State != service.StateDone {
		t.Fatalf("post-recovery job finished %s: %s", fin3.State, fin3.Error)
	}
	if flappy.jobPosts.Load() == 0 {
		t.Error("re-admitted worker received no unit submissions")
	}
}

// TestDispatchTrialReadmitsWithoutProber: with probing disabled
// (-probe-interval < 0) an open breaker must still re-admit a recovered
// worker — via a half-open dispatch trial after the BreakerRetry
// cooldown — instead of excluding it for the coordinator's lifetime.
func TestDispatchTrialReadmitsWithoutProber(t *testing.T) {
	flappy := startGatedWorker(t, nil)
	// While the flappy worker is down, the steady one holds each unit
	// until the flappy one has refused two: otherwise it can finish the
	// whole tiny job inside the flappy worker's post-failure backoff and
	// the breaker never reaches its threshold.
	steady := startGatedWorker(t, func() {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if flappy.healthy.Load() || flappy.jobPosts.Load() >= 2 {
				return
			}
		}
	})

	cfg := fastCoordConfig([]string{flappy.url, steady.url})
	cfg.ProbeInterval = -1 // no prober: dispatch trials own re-admission
	cfg.BreakerRetry = 200 * time.Millisecond
	cfg.BreakerThreshold = 2
	exec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	coord, err := service.New(service.Config{Workers: 2, Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// Worker down from the start: the job completes on the steady worker
	// and the flappy one's breaker opens from unit failures alone.
	flappy.healthy.Store(false)
	fin, _ := runToDone(t, coord, tinySpec())
	if fin.State != service.StateDone {
		t.Fatalf("job with one dead worker finished %s: %s", fin.State, fin.Error)
	}
	if got := exec.WorkerStatuses()[0].Breaker; got != BreakerOpen {
		t.Fatalf("dead worker's breaker is %s after the job, want open", got)
	}

	// Worker recovers; past the cooldown the next job's dispatch trial
	// must use it again and close the breaker.
	flappy.healthy.Store(true)
	time.Sleep(2 * cfg.BreakerRetry)
	flappy.jobPosts.Store(0)
	fin2, _ := runToDone(t, coord, tinySpec("H-Sort", "S-Sort", "H-Grep"))
	if fin2.State != service.StateDone {
		t.Fatalf("post-recovery job finished %s: %s", fin2.State, fin2.Error)
	}
	if flappy.jobPosts.Load() == 0 {
		t.Error("recovered worker received no dispatch trial with probing disabled")
	}
	waitBreaker(t, exec, 0, BreakerClosed, 5*time.Second)
}

// TestBreakerOpensOnUnitFailures: dispatch failures alone (no probing)
// open the breaker at the configured threshold, and recordSuccess closes
// it again.
func TestBreakerOpensOnUnitFailures(t *testing.T) {
	w := newWorkerState("http://example.invalid", nil, 3)
	if !w.available() {
		t.Fatal("fresh worker not available")
	}
	err := errors.New("boom")
	w.recordFailure(err)
	w.recordFailure(err)
	if !w.available() {
		t.Fatal("breaker opened below threshold")
	}
	w.recordFailure(err)
	if w.available() {
		t.Fatal("breaker still closed at threshold")
	}
	if st := w.snapshot(); st.Breaker != BreakerOpen || st.ConsecutiveFailures != 3 || st.UnitsFailed != 3 {
		t.Fatalf("unexpected snapshot %+v", st)
	}
	w.recordSuccess()
	if !w.available() {
		t.Fatal("unit success did not close the breaker")
	}
}

// TestBreakerHalfOpenProbeCycle: a probe on an open breaker passes
// through half-open, and its outcome decides re-admission.
func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	w := newWorkerState("http://example.invalid", nil, 1)
	w.recordFailure(errors.New("down"))
	if w.available() {
		t.Fatal("breaker should be open at threshold 1")
	}
	w.beginProbe()
	if st := w.snapshot(); st.Breaker != BreakerHalfOpen {
		t.Fatalf("probe on open breaker not half-open: %s", st.Breaker)
	}
	if w.available() {
		t.Fatal("half-open breaker must not admit dispatch")
	}
	w.finishProbe(errors.New("still down"))
	if st := w.snapshot(); st.Breaker != BreakerOpen || st.ProbeFailures != 1 {
		t.Fatalf("failed half-open probe did not re-open: %+v", st)
	}
	w.beginProbe()
	w.finishProbe(nil)
	if st := w.snapshot(); st.Breaker != BreakerClosed || st.ConsecutiveFailures != 0 {
		t.Fatalf("successful half-open probe did not close: %+v", st)
	}
}

// TestDispatchTrialStateMachine covers the probe-less half-open cycle:
// cooldown gating, single trial at a time, and all three trial outcomes
// (success, failure, canceled trial).
func TestDispatchTrialStateMachine(t *testing.T) {
	w := newWorkerState("http://example.invalid", nil, 1)
	w.recordFailure(errors.New("down"))
	if w.tryDispatchTrial(time.Hour) {
		t.Fatal("trial admitted inside the cooldown")
	}
	if !w.tryDispatchTrial(0) {
		t.Fatal("trial refused after the cooldown")
	}
	if w.tryDispatchTrial(0) {
		t.Fatal("second concurrent trial admitted while half-open")
	}
	w.recordFailure(errors.New("still down"))
	if st := w.snapshot(); st.Breaker != BreakerOpen {
		t.Fatalf("failed trial left breaker %s, want open", st.Breaker)
	}
	if !w.tryDispatchTrial(0) {
		t.Fatal("trial refused after a failed trial re-opened")
	}
	w.cancelTrial()
	if st := w.snapshot(); st.Breaker != BreakerOpen {
		t.Fatalf("canceled trial left breaker %s, want open", st.Breaker)
	}
	if !w.tryDispatchTrial(0) {
		t.Fatal("trial refused after a canceled trial")
	}
	w.recordSuccess()
	if st := w.snapshot(); st.Breaker != BreakerClosed || st.ConsecutiveFailures != 0 {
		t.Fatalf("successful trial did not close: %+v", st)
	}
}
