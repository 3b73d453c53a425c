package service

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// spanNames collects the set of span names in an export.
func spanNames(export obs.TraceExport) map[string]int {
	names := map[string]int{}
	for _, sp := range export.Spans {
		names[sp.Name]++
	}
	return names
}

// TestTracedJobSpansAndDeterminism runs the same tiny job with tracing
// enabled and disabled: the enabled run must expose a job root span,
// the queue-wait/cache-probe bookkeeping spans and the pipeline's stage
// spans; the disabled run must expose nothing — and both must produce
// the same result hash, because tracing is strictly observational.
func TestTracedJobSpansAndDeterminism(t *testing.T) {
	traced := newTestManager(t, Config{Parallelism: 2, TraceBuffer: 4096, TraceService: "bdservd"})
	st, err := traced.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, traced, st.ID, 120*time.Second)
	if fin.State != StateDone {
		t.Fatalf("traced job finished %s: %s", fin.State, fin.Error)
	}

	export, ok := traced.Trace(st.ID)
	if !ok {
		t.Fatal("tracing enabled but Trace returned no export")
	}
	if export.JobID != st.ID || export.TraceID != st.ID {
		t.Fatalf("export identity job=%q trace=%q, want both %q", export.JobID, export.TraceID, st.ID)
	}
	names := spanNames(export)
	for _, want := range []string{"job", "queue-wait", "cache-probe", "characterize"} {
		if names[want] == 0 {
			t.Errorf("trace missing a %q span (have %v)", want, names)
		}
	}
	for _, sp := range export.Spans {
		if sp.TraceID != st.ID {
			t.Fatalf("span %s carries trace ID %q, want %q", sp.Name, sp.TraceID, st.ID)
		}
		if sp.Name == "job" {
			if sp.Parent != "" {
				t.Errorf("local job root has parent %q, want none", sp.Parent)
			}
			if sp.Attrs["state"] != string(StateDone) {
				t.Errorf("job root state attr %q, want %q", sp.Attrs["state"], StateDone)
			}
		}
		if sp.Attrs["kind"] == "stage" && sp.Attrs["status"] != "ok" {
			t.Errorf("stage span %s status %q, want ok", sp.Name, sp.Attrs["status"])
		}
	}

	untraced := newTestManager(t, Config{Parallelism: 2, TraceBuffer: -1})
	st2, err := untraced.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitTerminal(t, untraced, st2.ID, 120*time.Second)
	if fin2.State != StateDone {
		t.Fatalf("untraced job finished %s: %s", fin2.State, fin2.Error)
	}
	if _, ok := untraced.Trace(st2.ID); ok {
		t.Error("tracing disabled but Trace returned an export")
	}
	if fin.ResultHash != fin2.ResultHash {
		t.Fatalf("tracing changed the result: traced %s, untraced %s", fin.ResultHash, fin2.ResultHash)
	}
}

// TestSubmitTracedJoinsUpstreamTrace pins the X-BD-Trace contract: a
// valid header re-roots the job's spans under the caller's trace ID and
// parent span; a malformed one is ignored and the job roots its own
// trace.
func TestSubmitTracedJoinsUpstreamTrace(t *testing.T) {
	upTrace := strings.Repeat("ab", 16) // well-formed 32-hex trace ID
	const upSpan = "parent-span-1"

	m := newTestManager(t, Config{Execute: fakeExec(0), TraceBuffer: 4096})
	st, err := m.SubmitTraced(tinySpec(), obs.FormatTraceParent(upTrace, upSpan))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, st.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	export, ok := m.Trace(st.ID)
	if !ok {
		t.Fatal("no trace export")
	}
	if export.TraceID != upTrace {
		t.Fatalf("trace ID %q, want upstream %q", export.TraceID, upTrace)
	}
	rooted := false
	for _, sp := range export.Spans {
		if sp.TraceID != upTrace {
			t.Fatalf("span %s kept trace ID %q, want upstream %q", sp.Name, sp.TraceID, upTrace)
		}
		if sp.Name == "job" && sp.Parent == upSpan {
			rooted = true
		}
	}
	if !rooted {
		t.Error("job root span is not parented under the upstream span")
	}

	m2 := newTestManager(t, Config{Execute: fakeExec(0), TraceBuffer: 4096})
	st2, err := m2.SubmitTraced(tinySpec(), "not a trace parent")
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m2, st2.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	export2, ok := m2.Trace(st2.ID)
	if !ok {
		t.Fatal("no trace export")
	}
	if export2.TraceID != st2.ID {
		t.Fatalf("malformed header: trace ID %q, want the job's own %q", export2.TraceID, st2.ID)
	}
}

// TestTraceHTTPEndpoint exercises GET /v1/jobs/{id}/trace in both
// formats, plus its 404s for unknown jobs and disabled tracing.
func TestTraceHTTPEndpoint(t *testing.T) {
	srv, m := newTestServer(t, Config{Execute: fakeExec(0), TraceBuffer: 4096, TraceService: "bdservd"})
	specJSON, err := json.Marshal(map[string]any{"spec": tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	st, code := postJob(t, srv, string(specJSON))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	if fin := waitTerminal(t, m, st.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}

	var export obs.TraceExport
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/trace", &export); code != http.StatusOK {
		t.Fatalf("trace endpoint: HTTP %d", code)
	}
	if export.JobID != st.ID || len(export.Spans) == 0 {
		t.Fatalf("trace export job=%q spans=%d", export.JobID, len(export.Spans))
	}

	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/trace?format=chrome", &chrome); code != http.StatusOK {
		t.Fatalf("chrome trace: HTTP %d", code)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	unknown := strings.Repeat("0", 32)
	if code := getJSON(t, srv.URL+"/v1/jobs/"+unknown+"/trace", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: HTTP %d, want 404", code)
	}

	offSrv, offM := newTestServer(t, Config{Execute: fakeExec(0), TraceBuffer: -1})
	st2, _ := postJob(t, offSrv, string(specJSON))
	if fin := waitTerminal(t, offM, st2.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	if code := getJSON(t, offSrv.URL+"/v1/jobs/"+st2.ID+"/trace", nil); code != http.StatusNotFound {
		t.Fatalf("disabled tracing: HTTP %d, want 404", code)
	}
}

// TestTraceSurvivesRestart: a manager closed mid-job writes the job's
// spans so far into its record, so the next incarnation's re-adopted job
// still carries its pre-shutdown spans — the cache-probe span exists only
// in the first incarnation's Submit path, so finding it after the restart
// proves the record round trip.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DataDir:     filepath.Join(dir, "data"),
		Execute:     fakeExec(400 * time.Millisecond),
		TraceBuffer: 4096,
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
	if fin := waitTerminal(t, m2, st.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("re-adopted job finished %s: %s", fin.State, fin.Error)
	}
	export, ok := m2.Trace(st.ID)
	if !ok {
		t.Fatal("re-adopted job has no trace")
	}
	names := spanNames(export)
	if names["cache-probe"] == 0 {
		t.Errorf("pre-crash cache-probe span lost across restart (have %v)", names)
	}
	done := false
	for _, sp := range export.Spans {
		if sp.Name == "job" && sp.Attrs["state"] == string(StateDone) {
			done = true
		}
	}
	if !done {
		t.Errorf("no job root span with state=done after restart (have %v)", names)
	}
}
