package service

// Crash-recovery and graceful-shutdown tests for the manager: journal
// replay under torn tails and from older versions, re-adoption of
// non-terminal jobs, drain semantics, and the degraded-health path when
// the journal loses its disk.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestJournalReplayEveryTruncation truncates a journal carrying submit,
// start, span and done records for two jobs at EVERY byte offset and
// replays each prefix: replay must never error, a partial line must
// contribute nothing, and the terminal/non-terminal semantics must hold
// at every cut — an in-flight job keeps exactly its complete span lines,
// a terminal one keeps none.
func TestJournalReplayEveryTruncation(t *testing.T) {
	spec := tinySpec()
	ts := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	span := func(id string) *obs.Span {
		return &obs.Span{TraceID: "job-a", ID: id, Name: "unit", Start: ts, End: ts.Add(time.Second)}
	}
	hash := strings.Repeat("c", 64)
	recs := []journalRecord{
		{TS: ts, Type: "submit", ID: "job-a", Spec: &spec},
		{TS: ts, Type: "start", ID: "job-a"},
		{TS: ts, Type: "span", ID: "job-a", Span: span("s1")},
		{TS: ts, Type: "submit", ID: "job-b", Spec: &spec},
		{TS: ts, Type: "start", ID: "job-b"},
		{TS: ts, Type: "span", ID: "job-b", Span: span("s2")},
		{TS: ts, Type: "done", ID: "job-b", Hash: hash},
		{TS: ts, Type: "span", ID: "job-a", Span: span("s3")},
	}
	var buf []byte
	ends := make([]int, len(recs)) // byte offset just past each record's newline
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		ends[i] = len(buf)
	}

	path := filepath.Join(t.TempDir(), "journal.ndjson")
	for cut := 0; cut <= len(buf); cut++ {
		// A record is replayable once all its bytes short of the trailing
		// newline are on disk — a final line cut exactly before its
		// newline still parses. Records are in file order, so record i is
		// replayable iff i < complete.
		complete := 0
		for _, e := range ends {
			if e-1 <= cut {
				complete++
			}
		}
		if err := os.WriteFile(path, buf[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, err := replayJournal(path)
		if err != nil {
			t.Fatalf("cut %d: replay error: %v", cut, err)
		}
		var a, b *replayedJob
		for i := range jobs {
			switch jobs[i].id {
			case "job-a":
				a = &jobs[i]
			case "job-b":
				b = &jobs[i]
			}
		}
		if (a != nil) != (complete > 0) || (b != nil) != (complete > 3) {
			t.Fatalf("cut %d: job-a present %v, job-b present %v (complete lines %d)", cut, a != nil, b != nil, complete)
		}
		if a != nil {
			var wantSpans []string
			for i, r := range recs {
				if r.Type == "span" && r.ID == "job-a" && i < complete {
					wantSpans = append(wantSpans, r.Span.ID)
				}
			}
			if a.state.terminal() || a.started.IsZero() != (complete <= 1) || len(a.spans) != len(wantSpans) {
				t.Fatalf("cut %d: job-a = %+v, want non-terminal, started %v, %d spans", cut, a, complete > 1, len(wantSpans))
			}
			for i, id := range wantSpans {
				if a.spans[i].ID != id {
					t.Fatalf("cut %d: job-a span %d is %q, want %q", cut, i, a.spans[i].ID, id)
				}
			}
		}
		if b != nil {
			// job-b: terminal iff its done line is complete, and terminal
			// replay drops its spans.
			if complete > 6 {
				if b.state != StateDone || b.hash != hash || len(b.spans) != 0 {
					t.Fatalf("cut %d: job-b not replayed done without spans: %+v", cut, b)
				}
			} else if b.state.terminal() || b.started.IsZero() != (complete <= 4) || len(b.spans) != boolInt(complete > 5) {
				t.Fatalf("cut %d: in-flight job-b = %+v (complete lines %d)", cut, b, complete)
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLegacyJournalReadopts replays a journal written by an older version
// that also journaled unit-level progress ("plan" and "unit_done" lines)
// over a data dir still holding that version's unit store: replay must
// not error, the non-terminal job must be re-adopted and finish, the boot
// compaction must drop the legacy lines, and the leftover units/
// directory must be ignored.
func TestLegacyJournalReadopts(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DataDir:     filepath.Join(dir, "data"),
		JournalPath: filepath.Join(dir, "journal.ndjson"),
		Execute:     fakeExec(0),
	}
	spec := tinySpec()
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("a", 64)
	legacy := fmt.Sprintf(`{"ts":"2026-01-02T03:04:05Z","type":"submit","id":%q,"spec":%s}
{"ts":"2026-01-02T03:04:06Z","type":"start","id":%q}
{"ts":"2026-01-02T03:04:06Z","type":"plan","id":%q,"parts":4}
{"ts":"2026-01-02T03:04:07Z","type":"unit_done","id":%q,"unit":0,"key":%q}
`, id, specJSON, id, id, id, key)
	if err := os.WriteFile(cfg.JournalPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	units := filepath.Join(cfg.DataDir, "units")
	if err := os.MkdirAll(units, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(units, key+".json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := New(cfg)
	if err != nil {
		t.Fatalf("legacy journal refused: %v", err)
	}
	if got, ok := m.Get(id); !ok || got.State.terminal() {
		m.Close()
		t.Fatalf("legacy non-terminal job not re-adopted: %+v (ok %v)", got, ok)
	}
	fin := waitTerminal(t, m, id, 10*time.Second)
	m.Close()
	if fin.State != StateDone {
		t.Fatalf("re-adopted legacy job finished %s: %s", fin.State, fin.Error)
	}
	data, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("compacted journal line %q: %v", line, err)
		}
		if rec.Type == "plan" || rec.Type == "unit_done" {
			t.Fatalf("compacted journal kept a legacy %s line: %s", rec.Type, line)
		}
	}
}

// TestShutdownReadoptsRunningJob: a manager closed with a job still
// running journals NO terminal record for it — the crash/shutdown model
// — so the next manager over the same journal re-adopts and finishes it,
// and only then does the journal go terminal.
func TestShutdownReadoptsRunningJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DataDir:     filepath.Join(dir, "data"),
		JournalPath: filepath.Join(dir, "journal.ndjson"),
		Execute:     fakeExec(400 * time.Millisecond),
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
	// A restart means the previous incarnation shut down: Close drains the
	// async journal writer, so the done record is on disk before m3 opens
	// the file. (Without this the test races the writer goroutine.)
	m2.Close()

	// Third incarnation sees it done — the terminal record landed.
	m3 := newTestManager(t, cfg)
	if got, ok := m3.Get(st.ID); !ok || got.State != StateDone {
		t.Fatalf("second restart: state %v ok %v, want done", got.State, ok)
	}
}

// TestUserCancelIsNotReadopted: an explicit cancel IS journaled terminal
// — only shutdown interruptions re-adopt.
func TestUserCancelIsNotReadopted(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		JournalPath: filepath.Join(dir, "journal.ndjson"),
		Execute:     fakeExec(time.Hour),
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

// TestJournalFailureDegradesHealthz: once an append hits a dead file the
// journal reports unhealthy — sticky — and /healthz turns 503 degraded,
// which is exactly what a coordinator's prober needs to breaker a
// disk-failing worker out of rotation.
func TestJournalFailureDegradesHealthz(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{
		JournalPath: filepath.Join(dir, "journal.ndjson"),
		Execute:     fakeExec(0),
	})
	if ok, detail := m.JournalHealth(); !ok {
		t.Fatalf("fresh journal unhealthy: %s", detail)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before failure: %v %v", resp.StatusCode, err)
	}

	// Pull the disk out from under the writer goroutine: the next append
	// hits a closed file and the failure sticks.
	m.jmu.Lock()
	m.journal.f.Close()
	m.jmu.Unlock()
	if _, err := m.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, _ := m.JournalHealth(); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal failure never surfaced in JournalHealth")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz status = %d, want 503", resp.StatusCode)
	}
	var body struct {
		Status  string `json:"status"`
		Journal string `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "degraded" || body.Journal == "" {
		t.Fatalf("degraded healthz body: %+v", body)
	}
}
