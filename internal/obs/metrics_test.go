package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one counter, gauge and histogram
// from many goroutines; run under -race this is the data-race proof,
// and the final values prove no update was lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bd_test_ops_total", "ops")
	cv := r.CounterVec("bd_test_labeled_total", "labeled ops", "kind")
	g := r.Gauge("bd_test_level", "level")
	h := r.Histogram("bd_test_latency_seconds", "latency", []float64{0.5, 1, 2})

	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := []string{"a", "b"}[w%2]
			for i := 0; i < perWorker; i++ {
				c.Inc()
				cv.With(kind).Inc()
				g.Add(1)
				h.Observe(float64(i%3) + 0.25) // 0.25, 1.25, 2.25
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if a, b := cv.With("a").Value(), cv.With("b").Value(); a+b != total || a != b {
		t.Errorf("labeled counters a=%d b=%d, want %d each", a, b, total/2)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %g, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	// Each worker observes perWorker/3 values in each of the three
	// ranges, summing to perWorker*(0.25+1.25+2.25)/3 per worker... but
	// perWorker isn't divisible by 3, so just bound the sum instead.
	if sum := h.Sum(); sum < 0.25*total || sum > 2.25*total {
		t.Errorf("histogram sum = %g out of range", sum)
	}
}

// TestConcurrentRender interleaves WriteText with live updates — the
// scrape-during-traffic case that -race must accept.
func TestConcurrentRender(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("bd_test_total", "t", "k")
	h := r.HistogramVec("bd_test_seconds", "t", nil, "k")
	r.GaugeFunc("bd_test_now", "t", func() float64 { return 1 })
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				c.With([]string{"x", "y"}[i%2]).Inc()
				h.With("x").Observe(0.1)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestExpositionGolden pins the exact text exposition bytes: HELP/TYPE
// lines, family and series sort order, cumulative histogram buckets
// with +Inf/sum/count, and label escaping.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	jobs := r.CounterVec("bd_jobs_total", "Jobs by state.", "state")
	jobs.With("done").Add(3)
	jobs.With("failed").Inc()
	r.Gauge("bd_queue_depth", "Queued jobs.").Set(2)
	r.GaugeFunc("bd_workers", "Fleet size.", func() float64 { return 4 })
	h := r.Histogram("bd_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)
	esc := r.CounterVec("bd_escapes_total", "Help with \\ and\nnewline.", "path")
	esc.With("say \"hi\"\\\n").Inc()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP bd_escapes_total Help with \\ and\nnewline.
# TYPE bd_escapes_total counter
bd_escapes_total{path="say \"hi\"\\\n"} 1
# HELP bd_jobs_total Jobs by state.
# TYPE bd_jobs_total counter
bd_jobs_total{state="done"} 3
bd_jobs_total{state="failed"} 1
# HELP bd_latency_seconds Latency.
# TYPE bd_latency_seconds histogram
bd_latency_seconds_bucket{le="0.1"} 2
bd_latency_seconds_bucket{le="1"} 3
bd_latency_seconds_bucket{le="+Inf"} 4
bd_latency_seconds_sum 99.6
bd_latency_seconds_count 4
# HELP bd_queue_depth Queued jobs.
# TYPE bd_queue_depth gauge
bd_queue_depth 2
# HELP bd_workers Fleet size.
# TYPE bd_workers gauge
bd_workers 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGaugeFuncVecOneCallPerRender: a GaugeFuncVec family's callback
// fills every series from one call — one render and one ReadScalar each
// invoke it exactly once, however many labels it sets.
func TestGaugeFuncVecOneCallPerRender(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.GaugeFuncVec("bd_jobs", "Jobs by state.", []string{"state"}, func(set func(float64, ...string)) {
		calls++
		set(2, "running")
		set(5, "done")
		set(0, "failed")
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("one render called the callback %d times, want 1", calls)
	}
	want := `# HELP bd_jobs Jobs by state.
# TYPE bd_jobs gauge
bd_jobs{state="done"} 5
bd_jobs{state="failed"} 0
bd_jobs{state="running"} 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if v, ok := r.ReadScalar("bd_jobs"); !ok || v != 7 || calls != 2 {
		t.Errorf("ReadScalar = %v,%v after %d calls, want 7,true after 2", v, ok, calls)
	}
	if v, ok := r.ReadScalarSeries("bd_jobs", []string{"running"}); !ok || v != 2 {
		t.Errorf("ReadScalarSeries(running) = %v,%v, want 2,true", v, ok)
	}
}

// TestReRegistration: same name + same schema returns the same
// instrument; a conflicting schema is a programming error and panics.
func TestReRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("bd_x_total", "x")
	b := r.Counter("bd_x_total", "x")
	a.Inc()
	if b.Value() != 1 {
		t.Errorf("re-registration returned a distinct counter")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("bd_x_total", "now a gauge")
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("bd_x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if ExpositionContentType != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("ExpositionContentType = %q", ExpositionContentType)
	}
	if !strings.Contains(rec.Body.String(), "bd_x_total 1") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9starts_with_digit", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "x")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("invalid label name did not panic")
			}
		}()
		r.CounterVec("bd_ok_total", "x", "bad-label")
	}()
}
