package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Distributed job tracing: the third observability pillar next to the
// metric registry and the structured logs, and like them deliberately
// dependency-free. A trace is the causal tree of spans behind one job —
// job → plan → unit[i] attempt[k] → dispatch/exec/validate → merge on
// the coordinator, with the worker's per-stage spans imported underneath
// the unit that dispatched them. Spans land in a bounded in-memory
// flight recorder (ring per job) and are exported as canonical JSON or
// Chrome trace_event format from GET /v1/jobs/{id}/trace.
//
// Tracing is strictly observational: whether the recorder is nil
// (disabled) or recording, job results are byte-identical — the
// chaostest suite pins that invariant.

// TraceHeader is the HTTP header that propagates trace context from the
// coordinator to a worker on job submission. Its value is
// "<trace-id>;<parent-span-id>" (see FormatTraceParent); the worker
// tags its own spans with the propagated trace ID and parents its job
// span under the coordinator's span, so the imported worker spans nest
// in the coordinator's trace.
const TraceHeader = "X-BD-Trace"

// TraceID derives a job's trace ID. Job IDs are already deterministic
// content hashes of the normalized spec (32 lowercase hex digits), so
// the job ID is used verbatim: resubmitting the same spec lands in the
// same trace identity, and the trace can be found from nothing but the
// job ID.
func TraceID(jobID string) string { return jobID }

// FormatTraceParent encodes trace context for the TraceHeader value.
func FormatTraceParent(traceID, spanID string) string {
	return traceID + ";" + spanID
}

// ParseTraceParent decodes a TraceHeader value. The trace ID must have
// job-ID shape and the span ID must be short and printable — anything
// else is rejected so untrusted header bytes never reach labels, logs
// or job records.
func ParseTraceParent(s string) (traceID, spanID string, ok bool) {
	i := strings.IndexByte(s, ';')
	if i < 0 {
		return "", "", false
	}
	traceID, spanID = s[:i], s[i+1:]
	if !IsJobID(traceID) || spanID == "" || len(spanID) > 64 {
		return "", "", false
	}
	for j := 0; j < len(spanID); j++ {
		b := spanID[j]
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '-', b == '_', b == '.':
		default:
			return "", "", false
		}
	}
	return traceID, spanID, true
}

// Span is one timed node of a trace. Spans with End == Start are
// instant markers (breaker/lease/fleet events) rather than intervals.
type Span struct {
	TraceID string            `json:"trace_id"`
	ID      string            `json:"span_id"`
	Parent  string            `json:"parent_id,omitempty"`
	Name    string            `json:"name"`
	Service string            `json:"service,omitempty"`
	Worker  string            `json:"worker,omitempty"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall-clock extent (zero for instants).
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// TraceExport is the canonical JSON shape served by
// GET /v1/jobs/{id}/trace: the job's spans in completion order plus the
// count of spans the bounded recorder had to drop.
type TraceExport struct {
	JobID        string `json:"job_id"`
	TraceID      string `json:"trace_id"`
	Service      string `json:"service"`
	DroppedSpans int    `json:"dropped_spans"`
	Spans        []Span `json:"spans"`
}

// traceBuf is one job's span ring: bounded at cap spans, oldest dropped
// first (a flight recorder keeps the tail of history, and the tail —
// merge, terminal state — is what a post-mortem needs most).
type traceBuf struct {
	traceID string
	spans   []Span
	start   int // ring read index
	n       int // live count
	dropped int
	lastUse int64 // LRU clock tick
}

// FlightRecorder is the bounded in-memory span store shared by all jobs
// of one process. All methods are nil-receiver safe: a nil recorder is
// the disabled state, and every call site can emit unconditionally.
//
// Bounds: at most maxSpans spans are retained per job (-trace-buffer;
// oldest dropped, counted in DroppedSpans) and at most maxTraces jobs
// are retained (least-recently-used trace evicted), so recorder memory
// is O(maxTraces × maxSpans) regardless of traffic. The job manager
// additionally calls Remove when it evicts a terminal job record, so
// traces are evicted LRU alongside job records.
type FlightRecorder struct {
	service   string
	maxTraces int
	maxSpans  int

	seq   atomic.Uint64
	nonce string // process-unique span-ID prefix (coordinator vs worker)

	mu     sync.Mutex
	traces map[string]*traceBuf
	clock  int64
}

// NewFlightRecorder builds a recorder for a process (service is the
// span Service tag: "bdservd", "bdcoord", "report"…). maxTraces bounds
// retained jobs, maxSpans the per-job ring.
func NewFlightRecorder(service string, maxTraces, maxSpans int) *FlightRecorder {
	if maxTraces < 1 {
		maxTraces = 1
	}
	if maxSpans < 1 {
		maxSpans = 1
	}
	var b [4]byte
	rand.Read(b[:])
	return &FlightRecorder{
		service:   service,
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
		nonce:     hex.EncodeToString(b[:]),
		traces:    make(map[string]*traceBuf),
	}
}

// Enabled reports whether the recorder is live (non-nil).
func (r *FlightRecorder) Enabled() bool { return r != nil }

// Service returns the recorder's span Service tag ("" when disabled).
func (r *FlightRecorder) Service() string {
	if r == nil {
		return ""
	}
	return r.service
}

// NewSpanID allocates a process-unique span ID. IDs are deliberately
// not deterministic (spans carry wall-clock time anyway); the random
// per-process nonce keeps coordinator and worker IDs from colliding
// inside one merged trace.
func (r *FlightRecorder) NewSpanID() string {
	if r == nil {
		return ""
	}
	return r.nonce + "-" + strconv.FormatUint(r.seq.Add(1), 10)
}

// buf returns (creating if needed) the ring for jobID, bumping its LRU
// tick and evicting the least-recently-used trace beyond maxTraces.
// Caller holds r.mu.
func (r *FlightRecorder) buf(jobID, traceID string) *traceBuf {
	r.clock++
	tb := r.traces[jobID]
	if tb == nil {
		tb = &traceBuf{traceID: traceID, spans: make([]Span, 0, 16)}
		r.traces[jobID] = tb
		if len(r.traces) > r.maxTraces {
			worstID, worst := "", int64(1<<62)
			for id, b := range r.traces {
				if id != jobID && b.lastUse < worst {
					worstID, worst = id, b.lastUse
				}
			}
			delete(r.traces, worstID)
		}
	}
	if tb.traceID == "" {
		tb.traceID = traceID
	}
	tb.lastUse = r.clock
	return tb
}

// push appends sp to jobID's ring, dropping the oldest span when full.
// Caller holds r.mu.
func (r *FlightRecorder) push(jobID string, sp Span) {
	tb := r.buf(jobID, sp.TraceID)
	if tb.n < r.maxSpans {
		if len(tb.spans) < r.maxSpans {
			tb.spans = append(tb.spans, sp)
		} else {
			tb.spans[(tb.start+tb.n)%len(tb.spans)] = sp
		}
		tb.n++
		return
	}
	tb.spans[tb.start] = sp
	tb.start = (tb.start + 1) % len(tb.spans)
	tb.dropped++
}

// Record accepts one completed span for jobID, filling in ID and
// Service when unset.
func (r *FlightRecorder) Record(jobID string, sp Span) {
	if r == nil {
		return
	}
	if sp.ID == "" {
		sp.ID = r.NewSpanID()
	}
	if sp.Service == "" {
		sp.Service = r.service
	}
	r.mu.Lock()
	r.push(jobID, sp)
	r.mu.Unlock()
}

// Replay re-inserts spans recovered from a job record — the spans a job
// cut short by a graceful shutdown carried into its next incarnation.
func (r *FlightRecorder) Replay(jobID string, spans []Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, sp := range spans {
		r.push(jobID, sp)
	}
	r.mu.Unlock()
}

// Remove drops jobID's trace (called when the job record is evicted).
func (r *FlightRecorder) Remove(jobID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.traces, jobID)
	r.mu.Unlock()
}

// Export snapshots jobID's trace in span-completion order.
func (r *FlightRecorder) Export(jobID string) (TraceExport, bool) {
	if r == nil {
		return TraceExport{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tb := r.traces[jobID]
	if tb == nil {
		return TraceExport{}, false
	}
	r.clock++
	tb.lastUse = r.clock
	out := TraceExport{
		JobID:        jobID,
		TraceID:      tb.traceID,
		Service:      r.service,
		DroppedSpans: tb.dropped,
		Spans:        make([]Span, 0, tb.n),
	}
	for i := 0; i < tb.n; i++ {
		out.Spans = append(out.Spans, tb.spans[(tb.start+i)%len(tb.spans)])
	}
	return out, true
}

// SpanHandle is an in-flight span builder returned by StartSpan. It is
// safe for concurrent annotation; End (idempotent) seals the span into
// the recorder. All methods are nil-receiver safe.
type SpanHandle struct {
	rec   *FlightRecorder
	jobID string

	mu    sync.Mutex
	span  Span
	ended bool
}

// StartSpan opens a span under trace (traceID, parent) for jobID's
// ring. A nil recorder returns a nil handle (all of whose methods
// no-op).
func (r *FlightRecorder) StartSpan(jobID, traceID, parent, name string) *SpanHandle {
	return r.StartSpanID(jobID, traceID, parent, name, "")
}

// StartSpanID is StartSpan with a caller-chosen span ID — used when the
// ID must be known (and referenced by children) before the span ends.
func (r *FlightRecorder) StartSpanID(jobID, traceID, parent, name, id string) *SpanHandle {
	if r == nil {
		return nil
	}
	if id == "" {
		id = r.NewSpanID()
	}
	return &SpanHandle{
		rec:   r,
		jobID: jobID,
		span: Span{
			TraceID: traceID,
			ID:      id,
			Parent:  parent,
			Name:    name,
			Service: r.service,
			Start:   time.Now(),
		},
	}
}

// ID returns the span's ID ("" on a nil handle).
func (h *SpanHandle) ID() string {
	if h == nil {
		return ""
	}
	return h.span.ID
}

// SetAttr sets one span attribute.
func (h *SpanHandle) SetAttr(k, v string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.span.Attrs == nil {
		h.span.Attrs = make(map[string]string, 4)
	}
	h.span.Attrs[k] = v
	h.mu.Unlock()
}

// End seals the span (status=ok unless an error status was already
// set) and records it. Idempotent; the handle's internal lock is
// released before the recorder is touched, so End composes
// with any caller lock order.
func (h *SpanHandle) End() { h.end(nil) }

// EndErr is End with status=error and the error message attached when
// err is non-nil.
func (h *SpanHandle) EndErr(err error) { h.end(err) }

func (h *SpanHandle) end(err error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.ended {
		h.mu.Unlock()
		return
	}
	h.ended = true
	if h.span.Attrs == nil {
		h.span.Attrs = make(map[string]string, 2)
	}
	if err != nil {
		h.span.Attrs["status"] = "error"
		h.span.Attrs["error"] = err.Error()
	} else if h.span.Attrs["status"] == "" {
		h.span.Attrs["status"] = "ok"
	}
	h.span.End = time.Now()
	sp := h.span
	h.mu.Unlock()
	h.rec.Record(h.jobID, sp)
}

// TraceContext is the per-job tracing capability a job manager hands
// down (via context) to whatever executes the job. A nil TraceContext
// is the disabled state; every method no-ops.
type TraceContext struct {
	Rec     *FlightRecorder
	JobID   string // recorder key (this process's job ID)
	TraceID string // trace identity (may be propagated from upstream)
	Root    string // parent span ID for top-level child spans
}

// StartSpan opens a span parented under the job's root span.
func (tc *TraceContext) StartSpan(name string) *SpanHandle {
	if tc == nil {
		return nil
	}
	return tc.Rec.StartSpanID(tc.JobID, tc.TraceID, tc.Root, name, "")
}

// StartChild opens a span under an explicit parent span ID.
func (tc *TraceContext) StartChild(parent, name string) *SpanHandle {
	if tc == nil {
		return nil
	}
	return tc.Rec.StartSpanID(tc.JobID, tc.TraceID, parent, name, "")
}

// Instant records a zero-duration marker span (breaker transitions,
// fleet membership changes, …) under the job's root span.
func (tc *TraceContext) Instant(name string, attrs map[string]string) {
	if tc == nil {
		return
	}
	now := time.Now()
	tc.Rec.Record(tc.JobID, Span{
		TraceID: tc.TraceID, Parent: tc.Root, Name: name,
		Start: now, End: now, Attrs: attrs,
	})
}

// RecordInterval records an already-measured span (stage timings,
// queue-wait) under an explicit parent.
func (tc *TraceContext) RecordInterval(parent, name string, start, end time.Time, attrs map[string]string) {
	if tc == nil {
		return
	}
	if parent == "" {
		parent = tc.Root
	}
	tc.Rec.Record(tc.JobID, Span{
		TraceID: tc.TraceID, Parent: parent, Name: name,
		Start: start, End: end, Attrs: attrs,
	})
}

// Import merges spans fetched from a worker's recorder into this trace:
// only spans already tagged with this trace's ID are kept (a worker
// cache hit serves spans from some older, foreign trace — those are the
// other trace's history, not this one's), root spans of the imported
// set are re-parented under parent, and worker/extra attributes are
// stamped on.
func (tc *TraceContext) Import(spans []Span, parent, worker string, attrs map[string]string) {
	if tc == nil {
		return
	}
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		if sp.TraceID == tc.TraceID {
			ids[sp.ID] = true
		}
	}
	for _, sp := range spans {
		if sp.TraceID != tc.TraceID {
			continue
		}
		if !ids[sp.Parent] {
			sp.Parent = parent
		}
		if sp.Worker == "" {
			sp.Worker = worker
		}
		if len(attrs) > 0 {
			m := make(map[string]string, len(sp.Attrs)+len(attrs))
			for k, v := range sp.Attrs {
				m[k] = v
			}
			for k, v := range attrs {
				if _, dup := m[k]; !dup {
					m[k] = v
				}
			}
			sp.Attrs = m
		}
		tc.Rec.Record(tc.JobID, sp)
	}
}

type traceCtxKey struct{}

// ContextWithTrace attaches tc to ctx (nil tc returns ctx unchanged).
func ContextWithTrace(ctx context.Context, tc *TraceContext) context.Context {
	if tc == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext returns the attached TraceContext, or nil — which is
// itself a valid (disabled) TraceContext receiver.
func TraceFromContext(ctx context.Context) *TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(*TraceContext)
	return tc
}

// ChromeTrace renders an export in Chrome trace_event JSON (the
// {"traceEvents": […]} envelope) loadable in chrome://tracing and
// Perfetto. Processes are (service, worker) pairs; within a process,
// spans of one unit share a thread lane so parent/child intervals nest
// visually, and instant spans render as markers.
func ChromeTrace(export TraceExport) ([]byte, error) {
	type event struct {
		Name  string         `json:"name"`
		Ph    string         `json:"ph"`
		TS    int64          `json:"ts"`
		Dur   int64          `json:"dur,omitempty"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Scope string         `json:"s,omitempty"`
		Args  map[string]any `json:"args,omitempty"`
	}
	pids := map[string]int{}
	var events []event
	pidOf := func(sp Span) int {
		key := sp.Service + "|" + sp.Worker
		pid, ok := pids[key]
		if !ok {
			pid = len(pids) + 1
			pids[key] = pid
			name := sp.Service
			if sp.Worker != "" {
				name += " " + sp.Worker
			}
			events = append(events, event{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": name},
			})
		}
		return pid
	}
	tidOf := func(sp Span) int {
		if u, err := strconv.Atoi(sp.Attrs["unit"]); err == nil {
			return u + 1
		}
		return 0
	}
	for _, sp := range export.Spans {
		pid, tid := pidOf(sp), tidOf(sp)
		args := map[string]any{"span_id": sp.ID}
		if sp.Parent != "" {
			args["parent_id"] = sp.Parent
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		ev := event{Name: sp.Name, TS: sp.Start.UnixMicro(), PID: pid, TID: tid, Args: args}
		if sp.End.After(sp.Start) {
			ev.Ph = "X"
			if ev.Dur = sp.End.Sub(sp.Start).Microseconds(); ev.Dur == 0 {
				ev.Dur = 1
			}
		} else {
			ev.Ph, ev.Scope = "i", "t"
		}
		events = append(events, ev)
	}
	return json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// StageStat is one pipeline stage's aggregate in a TraceSummary.
type StageStat struct {
	Name    string
	Seconds float64
	Count   int
}

// WorkerStat aggregates one worker's unit attempts in a TraceSummary.
type WorkerStat struct {
	Worker         string
	Units          int // successful exec spans
	Steals         int // successful execs of units another worker failed first
	Retries        int // failed exec attempts on this worker
	ExecSeconds    float64
	SlowestUnit    int
	SlowestSeconds float64
}

// TraceSummary is the per-stage / per-worker critical-path digest
// behind report -trace.
type TraceSummary struct {
	JobID       string
	TraceID     string
	WallSeconds float64
	Stages      []StageStat
	Workers     []WorkerStat
	TotalUnits  int
	TotalSteals int
	TotalRetry  int
	SlowestUnit int // -1 when no unit spans present
	SlowestSec  float64
	SlowestOn   string
}

// Summarize digests an export: job wall clock, per-stage durations (the
// coordinating process's own stage spans), and per-worker unit /
// steal / retry attribution with the slowest unit called out.
func Summarize(export TraceExport) TraceSummary {
	s := TraceSummary{JobID: export.JobID, TraceID: export.TraceID, SlowestUnit: -1}
	stages := map[string]*StageStat{}
	workers := map[string]*WorkerStat{}
	for _, sp := range export.Spans {
		switch {
		case sp.Name == "job" && sp.Service == export.Service:
			if d := sp.Duration().Seconds(); d > s.WallSeconds {
				s.WallSeconds = d
			}
		case sp.Attrs["kind"] == "stage" && sp.Service == export.Service:
			st := stages[sp.Name]
			if st == nil {
				st = &StageStat{Name: sp.Name}
				stages[sp.Name] = st
			}
			st.Seconds += sp.Duration().Seconds()
			st.Count++
		case sp.Name == "exec" && sp.Worker != "":
			w := workers[sp.Worker]
			if w == nil {
				w = &WorkerStat{Worker: sp.Worker, SlowestUnit: -1}
				workers[sp.Worker] = w
			}
			unit, _ := strconv.Atoi(sp.Attrs["unit"])
			d := sp.Duration().Seconds()
			if sp.Attrs["status"] == "ok" {
				w.Units++
				w.ExecSeconds += d
				if sp.Attrs["stolen"] == "true" {
					w.Steals++
				}
				if d > w.SlowestSeconds {
					w.SlowestSeconds, w.SlowestUnit = d, unit
				}
				if d > s.SlowestSec {
					s.SlowestSec, s.SlowestUnit, s.SlowestOn = d, unit, sp.Worker
				}
			} else {
				w.Retries++
			}
		}
	}
	for _, st := range stages {
		s.Stages = append(s.Stages, *st)
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Seconds > s.Stages[j].Seconds })
	for _, w := range workers {
		s.Workers = append(s.Workers, *w)
		s.TotalUnits += w.Units
		s.TotalSteals += w.Steals
		s.TotalRetry += w.Retries
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	return s
}

// Table renders the summary as the aligned text table report -trace
// prints.
func (s TraceSummary) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace %s (job %s)\n", s.TraceID, s.JobID)
	fmt.Fprintf(&b, "wall clock: %.3fs\n", s.WallSeconds)
	if len(s.Stages) > 0 {
		b.WriteString("\nPer-stage:\n")
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  stage\tseconds\tshare")
		for _, st := range s.Stages {
			share := 0.0
			if s.WallSeconds > 0 {
				share = 100 * st.Seconds / s.WallSeconds
			}
			fmt.Fprintf(tw, "  %s\t%.3f\t%.1f%%\n", st.Name, st.Seconds, share)
		}
		tw.Flush()
	}
	if len(s.Workers) > 0 {
		b.WriteString("\nPer-worker:\n")
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  worker\tunits\tsteals\tretries\texec s\tslowest unit")
		for _, w := range s.Workers {
			slow := "-"
			if w.SlowestUnit >= 0 {
				slow = fmt.Sprintf("unit %d (%.3fs)", w.SlowestUnit, w.SlowestSeconds)
			}
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%.3f\t%s\n",
				w.Worker, w.Units, w.Steals, w.Retries, w.ExecSeconds, slow)
		}
		tw.Flush()
		if s.SlowestUnit >= 0 {
			fmt.Fprintf(&b, "\ncritical path: unit %d on %s (%.3fs) · %d units, %d steals, %d retried attempts\n",
				s.SlowestUnit, s.SlowestOn, s.SlowestSec, s.TotalUnits, s.TotalSteals, s.TotalRetry)
		}
	}
	return b.String()
}
