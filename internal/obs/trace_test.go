package obs

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	jobID := strings.Repeat("ab", 16) // 32 hex chars: job-ID shape
	v := FormatTraceParent(TraceID(jobID), "aabbccdd-17")
	traceID, spanID, ok := ParseTraceParent(v)
	if !ok || traceID != jobID || spanID != "aabbccdd-17" {
		t.Fatalf("round trip failed: %q → (%q, %q, %v)", v, traceID, spanID, ok)
	}
}

func TestTraceParentRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"no-separator",
		"shortid;span",                          // trace ID not job-ID shaped
		strings.Repeat("ab", 16) + ";",          // empty span ID
		strings.Repeat("ab", 16) + ";has space", // bad span charset
		strings.Repeat("ab", 16) + ";" + strings.Repeat("x", 65), // too long
		strings.Repeat("AB", 16) + ";span",                       // uppercase trace ID
	}
	for _, s := range bad {
		if _, _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted, want rejected", s)
		}
	}
}

func TestNilRecorderSafety(t *testing.T) {
	var r *FlightRecorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.Record("j", Span{})
	r.Replay("j", []Span{{}})
	r.Remove("j")
	if _, ok := r.Export("j"); ok {
		t.Error("nil recorder exported a trace")
	}
	h := r.StartSpan("j", "t", "", "job")
	if h != nil {
		t.Fatal("nil recorder returned a non-nil handle")
	}
	h.SetAttr("k", "v")
	h.End()
	h.EndErr(nil)
	if h.ID() != "" {
		t.Error("nil handle has an ID")
	}
	var tc *TraceContext
	tc.Instant("x", nil)
	tc.RecordInterval("", "x", time.Now(), time.Now(), nil)
	tc.Import(nil, "", "", nil)
	if s := tc.StartSpan("x"); s != nil {
		t.Error("nil trace context returned a non-nil handle")
	}
}

func TestFlightRecorderRingBounds(t *testing.T) {
	r := NewFlightRecorder("test", 4, 3)
	for i := 0; i < 10; i++ {
		r.Record("job", Span{TraceID: "tr", Name: "s" + strconv.Itoa(i)})
	}
	export, ok := r.Export("job")
	if !ok {
		t.Fatal("no export")
	}
	if len(export.Spans) != 3 {
		t.Fatalf("ring kept %d spans, want 3", len(export.Spans))
	}
	if export.DroppedSpans != 7 {
		t.Errorf("dropped %d, want 7", export.DroppedSpans)
	}
	// The ring keeps the tail of history.
	for i, want := range []string{"s7", "s8", "s9"} {
		if export.Spans[i].Name != want {
			t.Errorf("span %d is %q, want %q", i, export.Spans[i].Name, want)
		}
	}
}

func TestFlightRecorderLRUTraceEviction(t *testing.T) {
	r := NewFlightRecorder("test", 2, 8)
	r.Record("a", Span{TraceID: "ta"})
	r.Record("b", Span{TraceID: "tb"})
	// Touch a so b is the LRU trace when c arrives.
	r.Export("a")
	r.Record("c", Span{TraceID: "tc"})
	if _, ok := r.Export("b"); ok {
		t.Error("LRU trace b survived eviction")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok := r.Export(id); !ok {
			t.Errorf("trace %s was evicted, want kept", id)
		}
	}
}

func TestSpanHandleLifecycle(t *testing.T) {
	r := NewFlightRecorder("test", 1, 16)
	h := r.StartSpan("job", "tr", "root", "unit")
	h.SetAttr("unit", "3")
	h.End()
	h.End() // idempotent
	export, _ := r.Export("job")
	if len(export.Spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(export.Spans))
	}
	sp := export.Spans[0]
	if sp.Name != "unit" || sp.Parent != "root" || sp.TraceID != "tr" || sp.Service != "test" {
		t.Errorf("span fields wrong: %+v", sp)
	}
	if sp.Attrs["status"] != "ok" || sp.Attrs["unit"] != "3" {
		t.Errorf("span attrs wrong: %v", sp.Attrs)
	}
	if sp.End.Before(sp.Start) {
		t.Error("span ends before it starts")
	}

	he := r.StartSpan("job", "tr", "root", "failing")
	he.EndErr(context.DeadlineExceeded)
	export, _ = r.Export("job")
	sp = export.Spans[1]
	if sp.Attrs["status"] != "error" || sp.Attrs["error"] == "" {
		t.Errorf("error span attrs wrong: %v", sp.Attrs)
	}
}

// TestReplayRestoresSpans: spans replayed from a job record land in the
// job's trace as they were.
func TestReplayRestoresSpans(t *testing.T) {
	r := NewFlightRecorder("test", 1, 16)
	r.Replay("job", []Span{{TraceID: "tr", Name: "a"}, {TraceID: "tr", Name: "b"}})
	export, _ := r.Export("job")
	if len(export.Spans) != 2 {
		t.Errorf("replayed %d spans, want 2", len(export.Spans))
	}
}

func TestImportFiltersAndReparents(t *testing.T) {
	r := NewFlightRecorder("coord", 4, 32)
	tc := &TraceContext{Rec: r, JobID: "job", TraceID: "mytrace", Root: "rootspan"}
	worker := []Span{
		{TraceID: "mytrace", ID: "w1", Parent: "upstream", Name: "job", Service: "bdservd"},
		{TraceID: "mytrace", ID: "w2", Parent: "w1", Name: "characterize", Service: "bdservd"},
		{TraceID: "foreign", ID: "w3", Parent: "", Name: "job", Service: "bdservd"},
	}
	tc.Import(worker, "execspan", "http://w:1", map[string]string{"unit": "2"})
	export, _ := r.Export("job")
	if len(export.Spans) != 2 {
		t.Fatalf("imported %d spans, want 2 (foreign trace filtered)", len(export.Spans))
	}
	byID := map[string]Span{}
	for _, sp := range export.Spans {
		byID[sp.ID] = sp
	}
	if byID["w1"].Parent != "execspan" {
		t.Errorf("imported root parent %q, want re-parented to execspan", byID["w1"].Parent)
	}
	if byID["w2"].Parent != "w1" {
		t.Errorf("imported child parent %q, want preserved w1", byID["w2"].Parent)
	}
	for id, sp := range byID {
		if sp.Worker != "http://w:1" || sp.Attrs["unit"] != "2" {
			t.Errorf("span %s missing worker/unit stamps: worker=%q attrs=%v", id, sp.Worker, sp.Attrs)
		}
	}
}

func TestTraceContextFromContext(t *testing.T) {
	if tc := TraceFromContext(context.Background()); tc != nil {
		t.Fatal("empty context yielded a trace context")
	}
	want := &TraceContext{JobID: "j"}
	ctx := ContextWithTrace(context.Background(), want)
	if got := TraceFromContext(ctx); got != want {
		t.Fatal("trace context did not round-trip through context")
	}
	if ctx2 := ContextWithTrace(context.Background(), nil); TraceFromContext(ctx2) != nil {
		t.Fatal("nil trace context was attached")
	}
}

func TestChromeTraceShape(t *testing.T) {
	now := time.Unix(1700000000, 0)
	export := TraceExport{
		JobID: "job", TraceID: "tr", Service: "bdcoord",
		Spans: []Span{
			{TraceID: "tr", ID: "a", Name: "job", Service: "bdcoord", Start: now, End: now.Add(time.Second)},
			{TraceID: "tr", ID: "b", Parent: "a", Name: "exec", Service: "bdcoord",
				Start: now, End: now.Add(500 * time.Millisecond), Attrs: map[string]string{"unit": "2"}},
			{TraceID: "tr", ID: "c", Parent: "a", Name: "worker-join", Service: "bdcoord", Start: now, End: now},
			{TraceID: "tr", ID: "d", Parent: "b", Name: "characterize", Service: "bdservd",
				Worker: "http://w:1", Start: now, End: now.Add(400 * time.Millisecond)},
		},
	}
	data, err := ChromeTrace(export)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	var complete, instant, meta int
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur < 1 {
				t.Errorf("complete event %s has dur %d, want ≥1", ev.Name, ev.Dur)
			}
		case "i":
			instant++
		case "M":
			meta++
			continue
		}
		pids[ev.PID] = true
	}
	if complete != 3 || instant != 1 {
		t.Errorf("got %d complete + %d instant events, want 3 + 1", complete, instant)
	}
	// Two processes: the coordinator and the worker, each with a name.
	if len(pids) != 2 || meta != 2 {
		t.Errorf("got %d pids and %d process_name records, want 2 and 2", len(pids), meta)
	}
	// The exec span's unit lane: tid = unit+1.
	for _, ev := range doc.TraceEvents {
		if ev.Name == "exec" && ev.TID != 3 {
			t.Errorf("exec span tid %d, want 3 (unit 2 + 1)", ev.TID)
		}
	}
}

func TestSummarize(t *testing.T) {
	now := time.Unix(1700000000, 0)
	export := TraceExport{
		JobID: "job", TraceID: "tr", Service: "bdcoord",
		Spans: []Span{
			{Name: "job", Service: "bdcoord", Start: now, End: now.Add(10 * time.Second)},
			{Name: "characterize", Service: "bdcoord", Start: now, End: now.Add(8 * time.Second),
				Attrs: map[string]string{"kind": "stage"}},
			{Name: "exec", Worker: "http://a:1", Start: now, End: now.Add(4 * time.Second),
				Attrs: map[string]string{"unit": "0", "status": "ok"}},
			{Name: "exec", Worker: "http://a:1", Start: now, End: now.Add(time.Second),
				Attrs: map[string]string{"unit": "1", "status": "error"}},
			{Name: "exec", Worker: "http://b:1", Start: now, End: now.Add(2 * time.Second),
				Attrs: map[string]string{"unit": "1", "status": "ok", "stolen": "true"}},
		},
	}
	s := Summarize(export)
	if s.WallSeconds != 10 {
		t.Errorf("wall %v, want 10", s.WallSeconds)
	}
	if len(s.Stages) != 1 || s.Stages[0].Name != "characterize" || s.Stages[0].Seconds != 8 {
		t.Errorf("stages wrong: %+v", s.Stages)
	}
	if s.TotalUnits != 2 || s.TotalSteals != 1 || s.TotalRetry != 1 {
		t.Errorf("totals units=%d steals=%d retries=%d, want 2/1/1", s.TotalUnits, s.TotalSteals, s.TotalRetry)
	}
	if s.SlowestUnit != 0 || s.SlowestOn != "http://a:1" {
		t.Errorf("critical path unit %d on %s, want unit 0 on http://a:1", s.SlowestUnit, s.SlowestOn)
	}
	table := s.Table()
	for _, want := range []string{"Per-stage", "Per-worker", "characterize", "http://a:1", "critical path"} {
		if !strings.Contains(table, want) {
			t.Errorf("summary table missing %q:\n%s", want, table)
		}
	}
}

func TestNormalizePathKnowsTraceRoute(t *testing.T) {
	route, jobID := NormalizePath("/v1/jobs/0123456789abcdef0123456789abcdef/trace")
	if route != "/v1/jobs/{id}/trace" {
		t.Errorf("NormalizePath trace route → %q, want /v1/jobs/{id}/trace", route)
	}
	if jobID != "0123456789abcdef0123456789abcdef" {
		t.Errorf("NormalizePath trace route job ID → %q", jobID)
	}
}
