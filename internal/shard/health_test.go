package shard

import (
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

var discardLog = slog.New(slog.DiscardHandler)

// gatedWorker fronts a real worker with a health toggle and a job-POST
// counter: flipping healthy=false simulates a worker that died *between*
// jobs (its /healthz fails) while still counting any unit the
// coordinator wrongly sends it.
type gatedWorker struct {
	url      string
	healthy  atomic.Bool
	jobPosts atomic.Int64
}

func startGatedWorker(t *testing.T) *gatedWorker {
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
// successful half-open probe re-admits it afterwards. A last phase runs
// with the prober idle for an hour: a worker dead from the start has its
// breaker opened by unit failures alone while the job completes on its
// sibling.
func TestBreakerBlocksDeadWorkerBetweenJobs(t *testing.T) {
	flappy := startGatedWorker(t)
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

	// Unit failures alone: a coordinator whose prober never fires, the
	// flappy worker dead from the start, and a grid neither worker has
	// seen, so the steady worker computes every unit rather than
	// replaying them from its result cache.
	quiet := cfg
	quiet.ProbeInterval = time.Hour
	exec2, err := New(quiet)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec2.Close)
	coord2, err := service.New(service.Config{Workers: 2, Execute: exec2.Execute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord2.Close)
	flappy.healthy.Store(false)
	spec4 := tinySpec()
	spec4.Cluster.Seed = 29
	spec4.Cluster.InstructionsPerCore = 12000
	fin4, _ := runToDone(t, coord2, spec4)
	if fin4.State != service.StateDone {
		t.Fatalf("job with a worker dead from the start finished %s: %s", fin4.State, fin4.Error)
	}
	if st := exec2.WorkerStatuses()[0]; st.Breaker != BreakerOpen || st.Probes != 0 || st.UnitsFailed < quiet.BreakerThreshold {
		t.Errorf("dead worker's breaker after unit failures alone: %+v, want open with no probes", st)
	}
}

// TestBreakerOpensOnUnitFailures: dispatch failures alone (no probing)
// open the breaker at the configured threshold, and recordSuccess closes
// it again.
func TestBreakerOpensOnUnitFailures(t *testing.T) {
	w := newWorkerState("http://example.invalid", nil, 3, newShardMetrics(obs.NewRegistry()), discardLog)
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
	w := newWorkerState("http://example.invalid", nil, 1, newShardMetrics(obs.NewRegistry()), discardLog)
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
