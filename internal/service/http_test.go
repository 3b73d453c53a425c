package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := newTestManager(t, cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return srv, m
}

func postJob(t *testing.T, srv *httptest.Server, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHTTPEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t, Config{Parallelism: 2})

	// Liveness.
	var health map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: code %d, body %v", code, health)
	}

	// Submit a tiny job through the low-level spec field.
	specJSON, err := json.Marshal(map[string]any{"spec": tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	st, code := postJob(t, srv, string(specJSON))
	if code != http.StatusAccepted {
		t.Fatalf("first POST: code %d", code)
	}
	if st.ID == "" || st.CacheHit {
		t.Fatalf("first POST status: %+v", st)
	}

	// Poll to completion.
	deadline := time.Now().Add(60 * time.Second)
	var cur JobStatus
	for {
		if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID, &cur); code != http.StatusOK {
			t.Fatalf("GET job: code %d", code)
		}
		if cur.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cur.State != StateDone || cur.ResultHash == "" {
		t.Fatalf("job finished %s (%s), hash %q", cur.State, cur.Error, cur.ResultHash)
	}

	// The event stream replays fully and ends with the done event.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events streamed", len(events))
	}
	if last := events[len(events)-1]; last.Type != "done" || last.ResultHash != cur.ResultHash {
		t.Errorf("last streamed event %+v, want done/%s", last, cur.ResultHash)
	}

	// Result bytes are stable across fetches.
	res1 := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/result")
	res2 := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/result")
	if !bytes.Equal(res1, res2) {
		t.Error("result bytes differ between fetches")
	}

	// Second identical submission: immediate cache hit, same hash.
	st2, code := postJob(t, srv, string(specJSON))
	if code != http.StatusOK {
		t.Fatalf("second POST: code %d", code)
	}
	if !st2.CacheHit || st2.State != StateDone || st2.ResultHash != cur.ResultHash {
		t.Fatalf("second POST: %+v, want done cache hit with hash %s", st2, cur.ResultHash)
	}

	var stats CacheTierStatus
	if code := getJSON(t, srv.URL+"/v1/cache/stats", &stats); code != http.StatusOK {
		t.Fatalf("cache stats: code %d", code)
	}
	if stats.Hits == 0 || stats.Stores == 0 {
		t.Errorf("cache stats after hit: %+v", stats)
	}

	// Listing includes the job.
	var jobs []JobStatus
	if code := getJSON(t, srv.URL+"/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Errorf("list: code %d, %d jobs", code, len(jobs))
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: code %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestHTTPConvenienceFieldsAndValidation(t *testing.T) {
	srv, _ := newTestServer(t, Config{Parallelism: 2})

	// Convenience-field submission maps onto the spec (not executed to
	// completion here — just accepted and canceled).
	st, code := postJob(t, srv, `{"workloads":["H-Sort","S-Sort"],"nodes":2,"instructions":1000,"kmin":2,"kmax":2,"linkage":"single"}`)
	if code != http.StatusAccepted {
		t.Fatalf("convenience POST: code %d", code)
	}
	if got := st.Spec.Cluster.SlaveNodes; got != 2 {
		t.Errorf("nodes not mapped: %d", got)
	}
	if got := st.Spec.Cluster.InstructionsPerCore; got != 1000 {
		t.Errorf("instructions not mapped: %d", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("DELETE: code %d", resp.StatusCode)
		}
	}

	for name, body := range map[string]string{
		"malformed":        `{"workloads":`,
		"trailing value":   `{"nodes":2}{"nodes":3}`,
		"trailing garbage": `{"nodes":2} x`,
		"unknown field":    `{"wrkloads":["H-Sort"]}`,
		"unknown workload": `{"workloads":["H-Sort","H-Nope"],"instructions":1000}`,
		"bad linkage":      `{"linkage":"median"}`,
		"spec+convenience": fmt.Sprintf(`{"nodes":3,"spec":%s}`, mustJSON(t, tinySpec())),
		"bad runs":         `{"runs":-1}`,
		"48-byte lines":    fmt.Sprintf(`{"spec":%s}`, mustJSON(t, oddLineSpec())),
	} {
		if _, code := postJob(t, srv, body); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
	}

	// Unknown job IDs 404 across endpoints.
	for _, url := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/jobs/deadbeef/events"} {
		if code := getJSON(t, srv.URL+url, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: code %d, want 404", url, code)
		}
	}
}

// Custom-workload request forms: inline definitions, preset names, and
// their interaction with validation and the spec/convenience exclusivity
// rule.
func TestHTTPCustomWorkloadsAndPresets(t *testing.T) {
	srv, _ := newTestServer(t, Config{Parallelism: 2})

	// Inline definition: materialized into the spec and selectable.
	inline := `{"workloads":["H-Sort","H-Probe"],"nodes":2,"instructions":1000,
		"custom_workloads":[{"name":"Probe","data":{"paper_bytes":1073741824,"skew":0.3},
		"mix":{"LoadFrac":0.3,"StoreFrac":0.1,"SeqFrac":0.6}}]}`
	st, code := postJob(t, srv, inline)
	if code != http.StatusAccepted {
		t.Fatalf("inline custom POST: code %d", code)
	}
	if n := len(st.Spec.CustomWorkloads); n != 1 {
		t.Fatalf("spec carries %d definitions, want 1", n)
	}
	if got := st.Spec.CustomWorkloads[0].Name; got != "Probe" {
		t.Errorf("definition name %q", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	// Preset names materialize full definitions into the spec, so the job
	// ID is a function of the preset's content.
	st, code = postJob(t, srv, `{"workloads":["H-StreamIngest"],"nodes":2,"instructions":1000,"presets":["StreamIngest"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("preset POST: code %d", code)
	}
	if n := len(st.Spec.CustomWorkloads); n != 1 || st.Spec.CustomWorkloads[0].Name != "StreamIngest" {
		t.Fatalf("preset not materialized into the spec: %+v", st.Spec.CustomWorkloads)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	for name, body := range map[string]string{
		"unknown preset":    `{"presets":["Nope"]}`,
		"builtin collision": `{"custom_workloads":[{"name":"Sort","data":{"paper_bytes":1048576},"mix":{"LoadFrac":0.3}}]}`,
		"bad definition":    `{"custom_workloads":[{"name":"X","data":{"paper_bytes":0},"mix":{"LoadFrac":0.3}}]}`,
		"spec+custom":       fmt.Sprintf(`{"presets":["StreamIngest"],"spec":%s}`, mustJSON(t, tinySpec())),
	} {
		if _, code := postJob(t, srv, body); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
