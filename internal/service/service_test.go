package service

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/cluster/kmeans"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
)

// tinySpec is a fast 2-workload job on a shrunken 2-core node.
func tinySpec() JobSpec {
	m := machine.Westmere()
	m.Sockets, m.CoresPerSocket = 1, 2
	m.L1I.SizeB = 1 << 10
	m.L1D.SizeB = 1 << 10
	m.L2.SizeB = 4 << 10
	m.L3.SizeB = 32 << 10
	return JobSpec{
		Workloads: []string{"H-Sort", "S-Sort"},
		Suite:     workloads.Config{Seed: 11, Scale: 1 << 16},
		Cluster: cluster.Config{
			Machine:             m,
			SlaveNodes:          2,
			InstructionsPerCore: 1500,
			Slices:              8,
			Monitor:             perf.DefaultMonitor(),
			Runs:                1,
			Seed:                11,
			ExecutionJitter:     0.05,
		},
		Analysis: core.AnalysisConfig{
			KMin: 2, KMax: 2,
			KMeans: kmeans.Config{Restarts: 2, Seed: 7},
		},
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func waitTerminal(t *testing.T, m *Manager, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s not terminal after %v (state %s, cells %d/%d)",
		id, timeout, st.State, st.CellsDone, st.CellsTotal)
	return JobStatus{}
}

func TestJobIDDeterministicAndContentAddressed(t *testing.T) {
	a, err := tinySpec().ID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinySpec().ID()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same spec hashed to %s and %s", a, b)
	}

	// Parallelism is an execution detail: it must not change the key.
	par := tinySpec()
	par.Cluster.Parallelism = 7
	par.Analysis.Parallelism = 3
	if id, _ := par.ID(); id != a {
		t.Errorf("parallelism changed job ID: %s vs %s", id, a)
	}

	// A partial monitor config (Counters defaulted, Multiplex off) is a
	// different measurement and must neither collide with the default-
	// monitor job nor lose the caller's Multiplex setting.
	mono := tinySpec()
	mono.Cluster.Monitor.Counters = 0
	mono.Cluster.Monitor.Multiplex = false
	norm, err := mono.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Cluster.Monitor.Multiplex {
		t.Error("normalization overwrote Multiplex=false")
	}
	if norm.Cluster.Monitor.Counters == 0 {
		t.Error("normalization left Counters at 0")
	}
	if id, _ := mono.ID(); id == a {
		t.Error("multiplex-off spec collided with the multiplex-on job ID")
	}

	// Any content change must change the key.
	for name, mutate := range map[string]func(*JobSpec){
		"seed":         func(s *JobSpec) { s.Cluster.Seed++ },
		"workloads":    func(s *JobSpec) { s.Workloads = []string{"S-Sort", "H-Sort"} },
		"instructions": func(s *JobSpec) { s.Cluster.InstructionsPerCore += 500 },
		"kmax":         func(s *JobSpec) { s.Analysis.KMin, s.Analysis.KMax = 2, 3 },
	} {
		s := tinySpec()
		mutate(&s)
		if id, err := s.ID(); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if id == a {
			t.Errorf("mutating %s did not change the job ID", name)
		}
	}
}

func TestModeNormalization(t *testing.T) {
	analyzeID, err := tinySpec().ID()
	if err != nil {
		t.Fatal(err)
	}

	// "analyze" is an alias of the canonical empty mode.
	alias := tinySpec()
	alias.Mode = "Analyze"
	if id, err := alias.ID(); err != nil || id != analyzeID {
		t.Errorf("mode 'Analyze' ID = %s (err %v), want %s", id, err, analyzeID)
	}

	// Observations mode is a distinct job…
	obs := tinySpec()
	obs.Mode = "observations"
	obsID, err := obs.ID()
	if err != nil {
		t.Fatal(err)
	}
	if obsID == analyzeID {
		t.Error("observations job collided with the analyze job ID")
	}
	// …whose identity ignores analysis settings (they are zeroed), so
	// shards of analyze jobs differing only in analysis config share
	// worker-side cache entries.
	obs2 := tinySpec()
	obs2.Mode = "characterize" // alias
	obs2.Analysis.KMax = 7
	if id, err := obs2.ID(); err != nil || id != obsID {
		t.Errorf("observations ID depends on analysis config: %s vs %s (err %v)", id, obsID, err)
	}

	bogus := tinySpec()
	bogus.Mode = "frobnicate"
	if _, err := bogus.Normalized(); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	unknown := tinySpec()
	unknown.Workloads = []string{"H-Sort", "H-Nope"}
	_, err := unknown.Normalized()
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "H-Nope") || !strings.Contains(err.Error(), "H-Grep") {
		t.Errorf("unknown-workload error should name the offender and list valid names: %v", err)
	}

	dup := tinySpec()
	dup.Workloads = []string{"H-Sort", "H-Sort"}
	if _, err := dup.Normalized(); err == nil {
		t.Error("duplicate workload accepted")
	}

	badK := tinySpec()
	badK.Analysis.KMin, badK.Analysis.KMax = 5, 3
	if _, err := badK.Normalized(); err == nil {
		t.Error("inverted K range accepted")
	}

	if _, err := oddLineSpec().Normalized(); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("48-byte cache lines: err %v, want a power-of-two rejection", err)
	}
}

// oddLineSpec is tinySpec with 48-byte lines at every cache level: each
// geometry divides evenly, but a line that is not a power of two bytes
// has no address boundary to model.
func oddLineSpec() JobSpec {
	s := tinySpec()
	m := &s.Cluster.Machine
	for _, c := range []*cache.Config{&m.L1I, &m.L1D, &m.L2, &m.L3} {
		c.LineB = 48
		c.SizeB = 48 * c.Ways * 16
	}
	return s
}

// TestSubmitComputesThenHitsCache is the acceptance-criteria test:
// submitting the identical spec twice yields a cache hit whose result is
// byte-identical, and an independent manager computing from scratch
// produces the same bytes (PR 1 determinism carried through the service).
func TestSubmitComputesThenHitsCache(t *testing.T) {
	m := newTestManager(t, Config{Parallelism: 2})

	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Error("first submission reported a cache hit")
	}
	fin := waitTerminal(t, m, st.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	if fin.ResultHash == "" {
		t.Fatal("done job has no result hash")
	}
	res1, ok := m.Result(st.ID)
	if !ok {
		t.Fatal("no result bytes for done job")
	}

	st2, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Error("second identical submission was not a cache hit")
	}
	if st2.ID != st.ID {
		t.Errorf("identical specs got different IDs: %s vs %s", st.ID, st2.ID)
	}
	if st2.ResultHash != fin.ResultHash {
		t.Errorf("cache hit hash %s != computed hash %s", st2.ResultHash, fin.ResultHash)
	}
	res2, _ := m.Result(st.ID)
	if !bytes.Equal(res1, res2) {
		t.Error("cached result bytes differ from computed result bytes")
	}

	// Independent manager, independent computation → identical bytes.
	m2 := newTestManager(t, Config{Parallelism: 1})
	st3, err := m2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin3 := waitTerminal(t, m2, st3.ID, 60*time.Second)
	if fin3.State != StateDone {
		t.Fatalf("second manager: job finished %s: %s", fin3.State, fin3.Error)
	}
	res3, _ := m2.Result(st3.ID)
	if !bytes.Equal(res1, res3) {
		t.Error("independent recomputation produced different result bytes")
	}
	if fin3.ResultHash != fin.ResultHash {
		t.Errorf("independent recomputation hash %s != %s", fin3.ResultHash, fin.ResultHash)
	}

	stats := m.CacheStats()
	if stats.Hits == 0 {
		t.Error("cache reported zero hits after a replayed submission")
	}
	if stats.Stores == 0 {
		t.Error("cache reported zero stores after a computed job")
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	m1 := newTestManager(t, Config{DataDir: dir, Parallelism: 2})
	st, err := m1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m1, st.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	res1, _ := m1.Result(st.ID)
	m1.Close()
	// The result tier lives under <data-dir>/results; nothing is written
	// at the old <data-dir>/<id>.json path.
	if _, err := os.Stat(filepath.Join(dir, "results", st.ID+".json")); err != nil {
		t.Fatalf("result not under <data-dir>/results: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("result written at the old <data-dir>/<id>.json path: %v", err)
	}

	// Fresh manager, same data dir: the submission must be served from
	// the disk tier without any computation.
	m2 := newTestManager(t, Config{DataDir: dir})
	start := time.Now()
	st2, err := m2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("restart submission: cacheHit=%v state=%s", st2.CacheHit, st2.State)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("disk-cache replay took %v, expected near-instant", elapsed)
	}
	if st2.ResultHash != fin.ResultHash {
		t.Errorf("disk replay hash %s != original %s", st2.ResultHash, fin.ResultHash)
	}
	res2, ok := m2.Result(st2.ID)
	if !ok || !bytes.Equal(res1, res2) {
		t.Error("disk replay bytes differ from original result")
	}
	if stats := m2.CacheStats(); stats.DiskHits == 0 {
		t.Error("disk tier reported zero hits after restart replay")
	}
}

// TestCancelStopsGridWorkersPromptly submits a job whose grid is far too
// large to finish quickly, cancels it after the first completed cells,
// and requires the executor to settle into the canceled state promptly —
// i.e. the grid workers stopped instead of draining the whole grid.
func TestCancelStopsGridWorkersPromptly(t *testing.T) {
	spec := tinySpec()
	spec.Workloads = []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}
	spec.Cluster.Runs = 8
	spec.Cluster.SlaveNodes = 4
	spec.Cluster.InstructionsPerCore = 300000 // 128 cells × 600k instr ≫ cancel window

	m := newTestManager(t, Config{Parallelism: 2})
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the grid is demonstrably in flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := m.Get(st.ID)
		if cur.CellsDone >= 2 {
			break
		}
		if cur.State.terminal() {
			t.Fatalf("job finished (%s) before it could be canceled — grid too small", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no grid progress after 30s (state %s)", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	canceledAt := time.Now()
	if !m.Cancel(st.ID) {
		t.Fatal("Cancel returned false for a live job")
	}
	fin := waitTerminal(t, m, st.ID, 10*time.Second)
	if fin.State != StateCanceled {
		t.Fatalf("state after cancel = %s (err %q), want %s", fin.State, fin.Error, StateCanceled)
	}
	settle := time.Since(canceledAt)
	t.Logf("cancellation settled in %v", settle)
	if settle > 5*time.Second {
		t.Errorf("cancellation took %v to settle; grid workers did not stop promptly", settle)
	}
	if fin.CellsDone >= fin.CellsTotal {
		t.Errorf("all %d cells ran despite cancellation", fin.CellsTotal)
	}
	if _, ok := m.Result(st.ID); ok {
		t.Error("canceled job has a result")
	}

	// A canceled job may be resubmitted and runs afresh.
	st2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHit || st2.State.terminal() {
		t.Errorf("resubmission after cancel: cacheHit=%v state=%s", st2.CacheHit, st2.State)
	}
	m.Cancel(st2.ID)
}

func TestCancelQueuedJobBeforeExecution(t *testing.T) {
	// One worker, occupied by a long job: the second job waits in the
	// queue and must cancel instantly without ever running.
	long := tinySpec()
	long.Cluster.Runs = 8
	long.Cluster.InstructionsPerCore = 300000

	m := newTestManager(t, Config{Workers: 1, Parallelism: 1})
	st1, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}

	queued, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != StateQueued {
		t.Fatalf("second job state %s, want queued", queued.State)
	}
	if !m.Cancel(queued.ID) {
		t.Fatal("Cancel returned false")
	}
	cur, _ := m.Get(queued.ID)
	if cur.State != StateCanceled {
		t.Fatalf("queued job state after cancel = %s", cur.State)
	}
	if cur.StartedAt != nil {
		t.Error("canceled queued job reports a start time")
	}
	m.Cancel(st1.ID)
}

func TestEventStreamReplaysWithTerminal(t *testing.T) {
	m := newTestManager(t, Config{Parallelism: 2})
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID, 60*time.Second)

	j, ok := m.job(st.ID)
	if !ok {
		t.Fatal("job missing")
	}
	evs, _, done := j.EventsSince(0)
	if !done {
		t.Fatal("stream not marked done after terminal state")
	}
	if len(evs) < 3 {
		t.Fatalf("expected ≥3 events (queued, running, …, done), got %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if first := evs[0]; first.Type != "state" || first.State != StateQueued {
		t.Errorf("stream starts with %+v, want the queued state event", first)
	}
	var sawRunning, sawStage, sawProgress bool
	for _, ev := range evs {
		switch ev.Type {
		case "state":
			if ev.State == StateRunning {
				sawRunning = true
			}
		case "stage":
			sawStage = true
		case "progress":
			sawProgress = true
		}
	}
	last := evs[len(evs)-1]
	if last.Type != "done" || last.ResultHash == "" {
		t.Errorf("last event = %+v, want done with result hash", last)
	}
	if !sawRunning || !sawStage || !sawProgress {
		t.Errorf("stream missing event kinds: running=%v stage=%v progress=%v",
			sawRunning, sawStage, sawProgress)
	}
}

func TestQueueFull(t *testing.T) {
	long := tinySpec()
	long.Cluster.Runs = 8
	long.Cluster.InstructionsPerCore = 300000

	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, Parallelism: 1})
	first, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pop the first job so the queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := m.Get(first.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started (state %s)", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	// Occupy the single queue slot with a distinct spec.
	second := long
	second.Cluster.Seed++
	if _, err := m.Submit(second); err != nil {
		t.Fatal(err)
	}
	third := long
	third.Cluster.Seed += 2
	if _, err := m.Submit(third); err != ErrQueueFull {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
}
