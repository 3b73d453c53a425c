// Package obs is the shared, dependency-free observability layer of
// both daemons: a metrics registry (atomic counters, gauges and
// fixed-bucket histograms) that renders the Prometheus text exposition
// format, structured slog logging setup, an HTTP middleware tying
// request logs and metrics together, and a periodic stats ticker.
//
// The registry deliberately implements only what the daemons need — no
// summaries, no exemplars, no push — so it stays a few hundred lines
// with zero third-party imports. Metric families are created once and
// cheap to update from hot paths: counters and gauges are single
// atomics, histogram observation is one atomic add per bucket plus a
// CAS for the sum.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// usable, but counters obtained through a Registry are what /metrics
// renders.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that may go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets (upper
// bounds in increasing order; an implicit +Inf bucket catches the rest).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // per-bound, non-cumulative; render accumulates
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets spans request-scale latencies: 5ms–10s.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// WideBuckets spans job/stage-scale latencies: 10ms–10min.
var WideBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// series is one (label values → value) instance within a family.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family is one named metric: a type, a label schema and its series.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	// collect, on a GaugeFuncVec family, computes every series at read
	// time; series then stays empty.
	collect func(set func(value float64, labelValues ...string))
}

// seriesKey joins label values with a byte that cannot appear in them
// unescaped-ambiguously; 0x00 is fine for an internal map key.
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.typ {
	case "counter":
		s.c = &Counter{}
	case "gauge":
		s.g = &Gauge{}
	case "histogram":
		s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds))}
	}
	f.series[key] = s
	return s
}

// Registry holds metric families and renders them as Prometheus text
// exposition. All methods are safe for concurrent use. Registering the
// same name twice returns the existing family when the type and label
// schema match, and panics otherwise — a programming error, not a
// runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string, labels []string, bounds []float64) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validMetricName(l) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, "counter", nil, nil).get(nil).c
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, "counter", labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Repeated calls with equal values return the same counter.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, "gauge", nil, nil).get(nil).g
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, "gauge", labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// GaugeFunc registers a gauge whose value is computed by fn at render
// time — the natural fit for instantaneous states the owner already
// tracks (queue depth, live-job counts, fleet size).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	s := r.family(name, help, "gauge", nil, nil).get(nil)
	s.fn = fn
}

// GaugeFuncVec registers a labeled gauge family computed by one callback
// at render time: fn runs once per render (and once per ReadScalar) and
// reports every series through set, so a breakdown that costs one scan
// — jobs by state — costs one scan however many labels it fills.
func (r *Registry) GaugeFuncVec(name, help string, labels []string, fn func(set func(value float64, labelValues ...string))) {
	f := r.family(name, help, "gauge", labels, nil)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// current returns the family's series as of now: a GaugeFuncVec
// family's callback runs once and its values become the series. Caller
// holds f.mu.
func (f *family) current() map[string]*series {
	if f.collect == nil {
		return f.series
	}
	out := make(map[string]*series)
	f.collect(func(value float64, labelValues ...string) {
		s := &series{values: append([]string(nil), labelValues...), g: &Gauge{}}
		s.g.Set(value)
		out[seriesKey(labelValues)] = s
	})
	return out
}

// Histogram registers (or finds) an unlabeled histogram over the given
// bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.family(name, help, "histogram", nil, bounds).get(nil).h
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{r.family(name, help, "histogram", labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// RegisterProcessMetrics adds the process-level gauges both daemons
// expose: goroutine count and uptime.
func RegisterProcessMetrics(r *Registry) {
	start := time.Now()
	r.GaugeFunc("bd_process_uptime_seconds",
		"Seconds since the process registered its metrics.",
		func() float64 { return time.Since(start).Seconds() })
	r.GaugeFunc("bd_go_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4). Families are sorted by name and series by label
// values, so the output is deterministic for golden tests.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		fams[name] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		f.mu.Lock()
		all := f.current()
		keys := make([]string, 0, len(all))
		for k := range all {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, k := range keys {
			s := all[k]
			switch {
			case s.h != nil:
				writeHistogram(&b, f, s)
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, s.values), formatFloat(s.fn()))
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labels, s.values), s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, s.values), formatFloat(s.g.Value()))
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets, an
// explicit +Inf bucket, then sum and count.
func writeHistogram(b *strings.Builder, f *family, s *series) {
	cum := uint64(0)
	for i, bound := range s.h.bounds {
		cum += s.h.counts[i].Load()
		le := formatFloat(bound)
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(append(f.labels, "le"), append(s.values, le)), cum)
	}
	total := s.h.Count()
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(append(f.labels, "le"), append(s.values, "+Inf")), total)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.values), formatFloat(s.h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.values), total)
}

// ExpositionContentType is the Content-Type of the Prometheus text
// exposition format the registry renders. Declared once here and set
// only by Handler, so every daemon's /metrics advertises the identical
// header.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the rendered registry — the body of GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ExpositionContentType)
		r.WriteText(w)
	})
}

func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		b := s[i]
		ok := b == '_' || b == ':' ||
			(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') ||
			(i > 0 && b >= '0' && b <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
