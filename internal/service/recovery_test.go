package service

// Crash-recovery and graceful-shutdown tests for the manager: job
// records read back whatever bytes they hold, re-adoption of
// non-terminal jobs, drain semantics, and the rejected-submission and
// degraded-health path when the record store loses its disk.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestShutdownReadoptsRunningJob: a manager closed with a job still
// running writes NO terminal record for it — the crash/shutdown model —
// so the next manager over the same data dir re-adopts and finishes it,
// and only then does the record go terminal.
func TestShutdownReadoptsRunningJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DataDir: filepath.Join(dir, "data"),
		Execute: fakeExec(400 * time.Millisecond),
	}
	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur, _ := m1.Get(st.ID); cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m1.Close()

	m2 := newTestManager(t, cfg)
	got, ok := m2.Get(st.ID)
	if !ok {
		t.Fatal("interrupted job not re-adopted after restart")
	}
	if got.State.terminal() {
		t.Fatalf("re-adopted job born terminal: %s", got.State)
	}
	fin := waitTerminal(t, m2, st.ID, 10*time.Second)
	if fin.State != StateDone {
		t.Fatalf("re-adopted job finished %s: %s", fin.State, fin.Error)
	}
	if data, ok := m2.Result(st.ID); !ok || len(data) == 0 {
		t.Fatal("re-adopted job has no result")
	}
	// A restart means the previous incarnation shut down.
	m2.Close()

	// Third incarnation sees it done — the terminal record landed.
	m3 := newTestManager(t, cfg)
	if got, ok := m3.Get(st.ID); !ok || got.State != StateDone {
		t.Fatalf("second restart: state %v ok %v, want done", got.State, ok)
	}
}

// TestUserCancelIsNotReadopted: an explicit cancel IS recorded terminal
// — only shutdown interruptions re-adopt.
func TestUserCancelIsNotReadopted(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DataDir: dir,
		Execute: fakeExec(time.Hour),
	}
	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Cancel(st.ID) {
		t.Fatal("cancel refused")
	}
	if fin := waitTerminal(t, m1, st.ID, 5*time.Second); fin.State != StateCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}
	m1.Close()

	m2 := newTestManager(t, cfg)
	if got, ok := m2.Get(st.ID); !ok || got.State != StateCanceled {
		t.Fatalf("canceled job replayed as %v (ok %v), want canceled", got.State, ok)
	}
}

// TestDrainWaitsAndRefusesNewWork: Drain lets in-flight jobs finish
// (returning true) while refusing new submissions with ErrDraining, and
// a drain that cannot finish in time reports false.
func TestDrainWaitsAndRefusesNewWork(t *testing.T) {
	m := newTestManager(t, Config{Execute: fakeExec(300 * time.Millisecond)})
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Drain(10 * time.Second) {
		t.Fatal("drain timed out with 10s budget for a 300ms job")
	}
	if got, _ := m.Get(st.ID); got.State != StateDone {
		t.Fatalf("drained job state %s, want done", got.State)
	}
	spec := tinySpec()
	spec.Cluster.Seed = 12345
	if _, err := m.Submit(spec); err != ErrDraining {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}

	m2 := newTestManager(t, Config{Execute: fakeExec(time.Hour)})
	if _, err := m2.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}
	if m2.Drain(50 * time.Millisecond) {
		t.Fatal("drain reported success with an hour-long job in flight")
	}
}

// TestRecordWriteFailureRejectsAndDegrades: a job record that cannot
// be written refuses the submission — no job is left behind — and turns
// /healthz 503 degraded, so an operator or load balancer sees a daemon
// that could lose jobs on restart. The next successful write clears it.
// A characterize-only shard worker keeps no job records, so this never
// takes one out of its coordinator's rotation.
func TestRecordWriteFailureRejectsAndDegrades(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{DataDir: dir, Execute: fakeExec(0)})
	if ok, detail := m.records.health(); !ok {
		t.Fatalf("fresh record store unhealthy: %s", detail)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	healthz := func() (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, _ := healthz(); code != http.StatusOK {
		t.Fatalf("healthz before failure: %d", code)
	}

	// Pull the disk out from under the store: the next write fails.
	jobs := filepath.Join(dir, "jobs")
	if err := os.RemoveAll(jobs); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(tinySpec())
	if !errors.Is(err, ErrRecordWrite) {
		t.Fatalf("submit with a dead record store: %+v, %v; want ErrRecordWrite", st, err)
	}
	id, _ := tinySpec().ID()
	if _, ok := m.Get(id); ok || len(m.List()) != 0 || m.anyLive() {
		t.Fatalf("rejected submission left a job behind: %+v", m.List())
	}
	code, body := healthz()
	if code != http.StatusServiceUnavailable || body["status"] != "degraded" || body["job_records"] == "" {
		t.Fatalf("degraded healthz: %d %+v", code, body)
	}
	if rs := m.Status().JobRecords; rs.Healthy || rs.Detail == "" {
		t.Fatalf("status job_records: %+v", rs)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workloads":["H-Sort"],"nodes":2,"instructions":1500}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/jobs with a dead record store: %d, want 503", resp.StatusCode)
	}

	// The disk comes back: the next write succeeds and health clears.
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err = m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, st.ID, 10*time.Second); fin.State != StateDone {
		t.Fatalf("job after recovery finished %s", fin.State)
	}
	if code, _ := healthz(); code != http.StatusOK {
		t.Fatalf("healthz after a successful write: %d, want 200", code)
	}
}

// validRecord is a whole failed-job record with one span, and its key.
func validRecord(t *testing.T) (id string, data []byte) {
	t.Helper()
	spec, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if id, err = spec.id(); err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(jobRecord{
		Spec: spec, State: StateFailed, Error: "boom",
		Created: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Spans:   []obs.Span{{TraceID: id, ID: "s1", Name: "unit"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return id, data
}

// TestJournalReplayEveryTruncation: the job records are the journal.
// A record file cut at EVERY byte offset reads back nothing and is
// deleted; only the whole record loads, with its state and spans.
func TestJournalReplayEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	id, valid := validRecord(t)
	rs, err := openRecords(dir, obs.NewRegistry().Counter("w", ""), slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs", id+".json")
	for cut := 0; cut <= len(valid); cut++ {
		if err := os.WriteFile(path, valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := rs.load()
		if cut < len(valid) {
			if len(got) != 0 {
				t.Fatalf("cut %d: truncated record loaded: %+v", cut, got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("cut %d: truncated record not deleted", cut)
			}
			continue
		}
		if len(got) != 1 || got[0].id != id || got[0].State != StateFailed || len(got[0].Spans) != 1 {
			t.Fatalf("whole record loaded as %+v", got)
		}
	}
}

// TestJournalToleratesTornTail: a crash mid-write leaves a torn temp
// file beside the records — of a done job's record, or of a job whose
// first write never landed. Boot reads neither as a record: the done job
// boots done from its whole record, and the unlanded job does not exist.
func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Execute: fakeExec(0)}
	m1 := newTestManager(t, cfg)
	st, err := m1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m1, st.ID, 10*time.Second)
	m1.Close()

	rec, err := os.ReadFile(filepath.Join(dir, "jobs", st.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	torn := map[string][]byte{
		st.ID + ".json.tmp123":                 rec[:len(rec)/2],
		strings.Repeat("a", 32) + ".json.tmp7": []byte(`{"spec":{"cluster":{"se`),
	}
	for name, b := range torn {
		if err := os.WriteFile(filepath.Join(dir, "jobs", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m2 := newTestManager(t, cfg)
	if got := listIDs(m2); len(got) != 1 || got[0] != st.ID {
		t.Fatalf("torn temp files changed the restored jobs: %v", got)
	}
	if got, _ := m2.Get(st.ID); got.State != StateDone || got.ResultHash != fin.ResultHash {
		t.Fatalf("torn tail broke replay: state=%s hash=%s", got.State, got.ResultHash)
	}
}

// TestRecordStoreSurvivesArbitraryBytes: whatever bytes sit in a record
// file — random bytes, well-formed JSON naming another job — boot neither
// fails nor panics, and every file that is not exactly a valid record of
// its key is deleted.
func TestRecordStoreSurvivesArbitraryBytes(t *testing.T) {
	dir := t.TempDir()
	id, valid := validRecord(t)
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", id+".json"), valid, 0o644); err != nil {
		t.Fatal(err)
	}

	// Random bytes and wrong-key JSON under many keys, beside the valid
	// record: one boot of a real manager.
	rng := rand.New(rand.NewPCG(1, 2))
	other := strings.Repeat("0", 32)
	garbage := map[string][]byte{
		other:                   valid, // a valid record, filed under a key it does not hash to
		strings.Repeat("1", 32): []byte("null"),
		strings.Repeat("2", 32): []byte("{}"),
		strings.Repeat("3", 32): []byte(`{"spec":7,"state":"done"}`),
		strings.Repeat("4", 32): nil,
	}
	for i := 0; i < 64; i++ {
		b := make([]byte, rng.IntN(256))
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		garbage[fmt.Sprintf("%032x", 1000+i)] = b
	}
	for key, b := range garbage {
		if err := os.WriteFile(filepath.Join(dir, "jobs", key+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := newTestManager(t, Config{DataDir: dir, Execute: fakeExec(0)})
	if got := listIDs(m); len(got) != 1 || got[0] != id {
		t.Fatalf("boot over garbage kept jobs %v, want only %s", got, id)
	}
	if st, _ := m.Get(id); st.State != StateFailed || st.Error != "boom" {
		t.Fatalf("valid record restored as %+v", st)
	}
	if got := recordIDs(t, dir); len(got) != 1 || got[0] != id {
		t.Fatalf("garbage records not deleted: %v", got)
	}
}

// TestRecordWithStoredResultBootsDone: a record whose result the result
// store holds boots done with that result's hash, whatever state it
// says — a terminal write lost in a crash costs nothing — and the job
// is not run again.
func TestRecordWithStoredResultBootsDone(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Config{DataDir: dir, Execute: fakeExec(0)})
	st, err := m1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m1, st.ID, 10*time.Second)
	m1.Close()
	path := filepath.Join(dir, "jobs", st.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, state := range []State{StateQueued, StateRunning, StateFailed, StateCanceled} {
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		rec.State, rec.Hash, rec.Error = state, "", "lost"
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var runs atomic.Int32
		m2 := newTestManager(t, Config{DataDir: dir, Execute: func(ctx context.Context, spec JobSpec, p core.Progress) ([]byte, error) {
			runs.Add(1)
			return fakeExec(0)(ctx, spec, p)
		}})
		got, ok := m2.Get(st.ID)
		if !ok || got.State != StateDone || got.ResultHash != fin.ResultHash {
			t.Fatalf("record in state %s booted as %+v (found %v), want done with %s", state, got, ok, fin.ResultHash)
		}
		m2.Close()
		if runs.Load() != 0 {
			t.Fatalf("record in state %s re-ran the job", state)
		}
	}
}

// TestOldJournalIgnored: a <data-dir>/journal.ndjson an older version
// left behind is neither read nor removed.
func TestOldJournalIgnored(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`{"ts":"2026-01-02T03:04:05Z","type":"submit","id":%q,"spec":%s}
{"ts":"2026-01-02T03:04:06Z","type":"start","id":%q}
`, id, specJSON, id)
	journal := filepath.Join(dir, "journal.ndjson")
	if err := os.WriteFile(journal, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{DataDir: dir, Execute: fakeExec(0)})
	if st, ok := m.Get(id); ok {
		t.Fatalf("old journal read: job %s in state %s", id, st.State)
	}
	m.Close()
	if data, err := os.ReadFile(journal); err != nil || string(data) != old {
		t.Fatalf("old journal changed or removed (err %v)", err)
	}
}
