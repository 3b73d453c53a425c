package service

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrapeMetric fetches /metrics and returns the value of the first
// sample line whose name+labels match the given regexp (0 if absent).
func scrapeMetric(t *testing.T, baseURL, pattern string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + pattern + ` ([0-9.eE+-]+|\+Inf)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("parsing sample %q: %v", m[1], err)
	}
	return v
}

// TestMetricsReflectJobLifecycle is the end-to-end observability check:
// submit a real job through the HTTP API, and assert that /metrics on
// the same server reports the submission, the completion, per-stage
// timings, and — after a repeat submission — the cache hit, with the
// JSON /v1/cache/stats endpoint agreeing because both read the same
// counters.
func TestMetricsReflectJobLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	srv, m := newTestServer(t, Config{Parallelism: 2, Registry: reg})

	specJSON, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	body := `{"spec":` + string(specJSON) + `}`
	st, code := postJob(t, srv, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	waitTerminal(t, m, st.ID, time.Minute)

	if v := scrapeMetric(t, srv.URL, `bd_jobs_submitted_total\{outcome="queued"\}`); v != 1 {
		t.Errorf("jobs_submitted{queued} = %g, want 1", v)
	}
	if v := scrapeMetric(t, srv.URL, `bd_jobs_completed_total\{state="done"\}`); v != 1 {
		t.Errorf("jobs_completed{done} = %g, want 1", v)
	}
	if v := scrapeMetric(t, srv.URL, `bd_job_duration_seconds_count\{state="done"\}`); v != 1 {
		t.Errorf("job_duration count = %g, want 1", v)
	}
	if v := scrapeMetric(t, srv.URL, `bd_stage_duration_seconds_count\{stage="characterize"\}`); v < 1 {
		t.Errorf("no characterize stage timing recorded")
	}
	if v := scrapeMetric(t, srv.URL, `bd_cache_misses_total`); v != 1 {
		t.Errorf("cache_misses = %g, want 1", v)
	}
	if v := scrapeMetric(t, srv.URL, `bd_cache_stores_total`); v != 1 {
		t.Errorf("cache_stores = %g, want 1", v)
	}

	// Resubmit: same spec → memory cache hit, visible on /metrics AND on
	// the JSON stats endpoint (same underlying counters).
	st2, code := postJob(t, srv, body)
	if code != http.StatusOK || st2.State != StateDone {
		t.Fatalf("resubmit = %d state %s, want 200 done", code, st2.State)
	}
	if v := scrapeMetric(t, srv.URL, `bd_jobs_submitted_total\{outcome="cache_hit"\}`); v != 1 {
		t.Errorf("jobs_submitted{cache_hit} = %g, want 1", v)
	}
	if v := scrapeMetric(t, srv.URL, `bd_cache_hits_total\{tier="memory"\}`); v != 1 {
		t.Errorf("cache_hits{memory} = %g, want 1", v)
	}
	var cs CacheTierStatus
	if code := getJSON(t, srv.URL+"/v1/cache/stats", &cs); code != http.StatusOK {
		t.Fatalf("/v1/cache/stats = %d", code)
	}
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("JSON cache stats disagree with /metrics: %+v", cs)
	}

	// The queue gauges render (values are instantaneous; just presence
	// and sanity, not exact numbers).
	if v := scrapeMetric(t, srv.URL, `bd_queue_capacity`); v < 1 {
		t.Errorf("bd_queue_capacity = %g", v)
	}
	if v := scrapeMetric(t, srv.URL, `bd_jobs\{state="done"\}`); v != 1 {
		t.Errorf("bd_jobs{done} = %g, want 1", v)
	}
	// HTTP middleware isn't mounted by NewHandler (the daemons wrap it),
	// so no bd_http_* assertions here — covered in internal/obs tests.
}

// TestEventsCarryJobID: every NDJSON lifecycle event names its job.
func TestEventsCarryJobID(t *testing.T) {
	m := newTestManager(t, Config{Parallelism: 2})
	st, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID, time.Minute)
	j, ok := m.job(st.ID)
	if !ok {
		t.Fatalf("job %s disappeared", st.ID)
	}
	evs, _, _ := j.EventsSince(0)
	if len(evs) == 0 {
		t.Fatalf("no events for job %s", st.ID)
	}
	for _, ev := range evs {
		if ev.JobID != st.ID {
			t.Fatalf("event %q has job_id %q, want %q", ev.Type, ev.JobID, st.ID)
		}
	}
}
