package shard

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bigdata/custom"
	"repro/internal/service"
)

// worker is one in-process bdservd: a real manager behind a real HTTP
// server on a loopback port, killable mid-run.
type worker struct {
	url string
	mgr *service.Manager
	srv *http.Server
}

func startWorker(t *testing.T, cfg service.Config) *worker {
	t.Helper()
	mgr, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewHandler(mgr)}
	go srv.Serve(ln)
	w := &worker{url: "http://" + ln.Addr().String(), mgr: mgr, srv: srv}
	t.Cleanup(func() { srv.Close() })
	return w
}

// kill hard-closes the worker's HTTP server: the listener stops accepting
// and every active connection — including NDJSON event streams — is torn
// down. The manager keeps running (a real daemon's executor would too);
// only the network presence dies.
func (w *worker) kill() { w.srv.Close() }

// fastCoordConfig is the test-speed executor configuration: tight
// probe/breaker/grace knobs so failure paths settle in milliseconds
// instead of the production-scale defaults.
func fastCoordConfig(urls []string) Config {
	return Config{
		Workers:          urls,
		Parallelism:      2,
		ProbeInterval:    100 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 3,
		DownGrace:        time.Second,
	}
}

func newCoordinator(t *testing.T, urls []string) *service.Manager {
	t.Helper()
	exec, err := New(fastCoordConfig(urls))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	mgr, err := service.New(service.Config{Workers: 2, Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr
}

func waitTerminal(t *testing.T, m *service.Manager, id string, timeout time.Duration) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State == service.StateDone || st.State == service.StateFailed || st.State == service.StateCanceled {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s not terminal after %v (state %s, cells %d/%d)",
		id, timeout, st.State, st.CellsDone, st.CellsTotal)
	return service.JobStatus{}
}

func runToDone(t *testing.T, m *service.Manager, spec service.JobSpec) (service.JobStatus, []byte) {
	t.Helper()
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := m.Result(st.ID)
	if !ok {
		t.Fatal("no result bytes for done job")
	}
	return fin, data
}

// TestCoordinatorHashMatchesSingleDaemon is the golden determinism test:
// the coordinator's merged result must be byte-identical — same content
// hash — to a single daemon executing the same spec, at 1, 2 and 3
// workers.
func TestCoordinatorHashMatchesSingleDaemon(t *testing.T) {
	spec := tinySpec()

	single, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	ref, refBytes := runToDone(t, single, spec)

	for _, n := range []int{1, 2, 3} {
		var urls []string
		for i := 0; i < n; i++ {
			urls = append(urls, startWorker(t, service.Config{Workers: 2, Parallelism: 2}).url)
		}
		coord := newCoordinator(t, urls)
		fin, data := runToDone(t, coord, spec)
		if fin.ResultHash != ref.ResultHash {
			t.Errorf("%d workers: merged hash %s != single-daemon hash %s", n, fin.ResultHash, ref.ResultHash)
		}
		if !bytes.Equal(data, refBytes) {
			t.Errorf("%d workers: merged result bytes differ from single-daemon bytes", n)
		}
	}
}

// TestCoordinatorCustomWorkloadsMatchSingleDaemon is the acceptance test
// for the open scenario registry: a job whose spec carries custom
// workload definitions (a preset plus an ad-hoc one), fanned out across
// 2 and 3 workers, must merge byte-identical to the single-daemon run,
// and resubmitting to the coordinator must be a cache hit with the same
// job ID.
func TestCoordinatorCustomWorkloadsMatchSingleDaemon(t *testing.T) {
	spec := customSpec("H-Sort", "S-Sort", "H-MemThrash", "S-MemThrash", "H-ScanProbe", "S-ScanProbe")
	spec.CustomWorkloads = append([]custom.Definition{pickPreset(t, "MemThrash")}, spec.CustomWorkloads...)

	single, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	ref, refBytes := runToDone(t, single, spec)

	for _, n := range []int{2, 3} {
		var urls []string
		for i := 0; i < n; i++ {
			urls = append(urls, startWorker(t, service.Config{Workers: 2, Parallelism: 2}).url)
		}
		coord := newCoordinator(t, urls)
		fin, data := runToDone(t, coord, spec)
		if fin.ID != ref.ID {
			t.Errorf("%d workers: job ID %s != single-daemon ID %s", n, fin.ID, ref.ID)
		}
		if fin.ResultHash != ref.ResultHash {
			t.Errorf("%d workers: merged hash %s != single-daemon hash %s", n, fin.ResultHash, ref.ResultHash)
		}
		if !bytes.Equal(data, refBytes) {
			t.Errorf("%d workers: merged custom-workload bytes differ from single-daemon bytes", n)
		}

		// Resubmission: cache hit, unchanged ID and hash.
		again, err := coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || again.ID != ref.ID || again.ResultHash != ref.ResultHash {
			t.Errorf("%d workers: resubmission not a stable cache hit: %+v", n, again)
		}
	}
}

func pickPreset(t *testing.T, name string) custom.Definition {
	t.Helper()
	defs, err := custom.PresetsByName([]string{name})
	if err != nil {
		t.Fatal(err)
	}
	return defs[0]
}

// TestCoordinatorFailsOverDeadWorker points the coordinator at one dead
// URL and one live worker: every shard that lands on the corpse must be
// re-dispatched, and the merged hash must still match the single-daemon
// run.
func TestCoordinatorFailsOverDeadWorker(t *testing.T) {
	spec := tinySpec()

	single, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	ref, refBytes := runToDone(t, single, spec)

	// A listener that is closed immediately: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	live := startWorker(t, service.Config{Workers: 2, Parallelism: 2})
	coord := newCoordinator(t, []string{dead, live.url})
	fin, data := runToDone(t, coord, spec)
	if fin.ResultHash != ref.ResultHash {
		t.Errorf("failover hash %s != single-daemon hash %s", fin.ResultHash, ref.ResultHash)
	}
	if !bytes.Equal(data, refBytes) {
		t.Error("failover result bytes differ from single-daemon bytes")
	}
}

// TestCoordinatorFailsOverKilledWorker kills a worker while its shard is
// streaming: the broken stream must re-dispatch the shard to the
// survivor and the merged hash must still match.
func TestCoordinatorFailsOverKilledWorker(t *testing.T) {
	// A grid big enough that the kill lands mid-run.
	spec := tinySpec()
	spec.Cluster.InstructionsPerCore = 30000

	single, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	ref, refBytes := runToDone(t, single, spec)

	victim := startWorker(t, service.Config{Workers: 2, Parallelism: 1})
	survivor := startWorker(t, service.Config{Workers: 2, Parallelism: 1})
	coord := newCoordinator(t, []string{victim.url, survivor.url})

	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the victim as soon as it demonstrably owns a running shard.
	deadline := time.Now().Add(60 * time.Second)
	killed := false
	for time.Now().Before(deadline) {
		for _, js := range victim.mgr.List() {
			if js.State == service.StateRunning {
				victim.kill()
				killed = true
			}
		}
		if killed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !killed {
		t.Fatal("victim worker never started a shard job")
	}

	fin := waitTerminal(t, coord, st.ID, 180*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("job finished %s after worker kill: %s", fin.State, fin.Error)
	}
	if fin.ResultHash != ref.ResultHash {
		t.Errorf("post-failover hash %s != single-daemon hash %s", fin.ResultHash, ref.ResultHash)
	}
	data, _ := coord.Result(st.ID)
	if !bytes.Equal(data, refBytes) {
		t.Error("post-failover result bytes differ from single-daemon bytes")
	}
}

// TestCoordinatorFailsOverStalledWorker: a worker that accepts the job
// but then goes silent — connected, no events, no completion — must trip
// the stall watchdog and fail the shard over to the live worker, with
// the merged hash still matching a single-daemon run.
func TestCoordinatorFailsOverStalledWorker(t *testing.T) {
	spec := tinySpec()

	single, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	ref, refBytes := runToDone(t, single, spec)

	// A worker that admits every job and then streams nothing, forever.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"00000000000000000000000000000000","state":"queued"}`))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done() // silence until the client gives up
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stallSrv := &http.Server{Handler: mux}
	go stallSrv.Serve(ln)
	t.Cleanup(func() { stallSrv.Close() })

	live := startWorker(t, service.Config{Workers: 2, Parallelism: 2})
	cfg := fastCoordConfig([]string{"http://" + ln.Addr().String(), live.url})
	cfg.StallTimeout = 500 * time.Millisecond
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

	fin, data := runToDone(t, coord, spec)
	if fin.ResultHash != ref.ResultHash {
		t.Errorf("post-stall-failover hash %s != single-daemon hash %s", fin.ResultHash, ref.ResultHash)
	}
	if !bytes.Equal(data, refBytes) {
		t.Error("post-stall-failover bytes differ from single-daemon bytes")
	}
}

// TestCoordinatorAllWorkersDownFailsJob: with every worker unreachable
// the job must settle as failed carrying the real shard-exhaustion error
// — not as canceled, which is what a sibling shard's cancellation
// symptom would report.
func TestCoordinatorAllWorkersDownFailsJob(t *testing.T) {
	var dead []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead = append(dead, "http://"+ln.Addr().String())
		ln.Close()
	}
	coord := newCoordinator(t, dead)
	st, err := coord.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, coord, st.ID, 60*time.Second)
	if fin.State != service.StateFailed {
		t.Fatalf("job settled %s, want failed (err %q)", fin.State, fin.Error)
	}
	if !strings.Contains(fin.Error, "exhausted") {
		t.Errorf("failure does not carry the shard-exhaustion cause: %q", fin.Error)
	}
}

// TestCoordinatorObservationsJob: a characterize-only job through the
// coordinator must be byte-identical to the same job on a single daemon
// (the merged matrix, not an analysis).
func TestCoordinatorObservationsJob(t *testing.T) {
	spec := tinySpec()
	spec.Mode = service.ModeObservations

	single, err := service.New(service.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	ref, refBytes := runToDone(t, single, spec)

	w1 := startWorker(t, service.Config{Workers: 2, Parallelism: 2})
	w2 := startWorker(t, service.Config{Workers: 2, Parallelism: 2})
	coord := newCoordinator(t, []string{w1.url, w2.url})
	fin, data := runToDone(t, coord, spec)
	if fin.ResultHash != ref.ResultHash {
		t.Errorf("observations hash %s != single-daemon %s", fin.ResultHash, ref.ResultHash)
	}
	if !bytes.Equal(data, refBytes) {
		t.Error("observations bytes differ from single-daemon bytes")
	}
}

// The queue's settled channel closes exactly when the job is over — after
// the last complete, an exhausted attempt budget, or a dead-fleet verdict
// from stuckCheck — and stays open through every step before that. No step
// sleeps: a zero grace lets the second stuckCheck decide at once.
func TestUnitQueueSettledChannel(t *testing.T) {
	take := func(q *unitQueue) {
		if _, _, ok := q.tryTake("w", nil); !ok {
			t.Fatal("no unit to take")
		}
	}
	complete := func(u int) func(*unitQueue) { return func(q *unitQueue) { q.complete(u) } }
	release := func(u int) func(*unitQueue) { return func(q *unitQueue) { q.release(u) } }
	fail := func(q *unitQueue) { q.fail(0, "w", errors.New("unit failed")) }
	stuck := func(q *unitQueue) { q.stuckCheck(func() bool { return true }, 0) }
	for _, c := range []struct {
		name        string
		total       int
		maxAttempts int
		steps       []func(*unitQueue) // the last one settles the queue
		wantErr     bool
	}{
		{"last complete", 2, 3, []func(*unitQueue){take, take, complete(0), release(1), take, complete(1)}, false},
		{"attempt budget exhausted", 1, 2, []func(*unitQueue){take, fail, take, fail}, true},
		{"stuckCheck", 1, 3, []func(*unitQueue){stuck, stuck}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			canceled := false
			q := newUnitQueue(c.total, c.maxAttempts, func() { canceled = true })
			for i, step := range c.steps {
				select {
				case <-q.settledCh:
					t.Fatalf("settled channel closed before step %d", i)
				default:
				}
				step(q)
			}
			select {
			case <-q.settledCh:
			default:
				t.Fatal("settled channel still open after the settling step")
			}
			if done, err := q.settled(); !done || (err != nil) != c.wantErr || canceled != c.wantErr {
				t.Errorf("settled() = %v, %v; siblings canceled %v", done, err, canceled)
			}
			q.wait(context.Background(), time.Hour) // returns at once on a settled queue
		})
	}
	// A queue with no unit to run is born settled.
	q := newUnitQueue(0, 3, func() {})
	select {
	case <-q.settledCh:
	default:
		t.Error("empty queue has an open settled channel")
	}
}
