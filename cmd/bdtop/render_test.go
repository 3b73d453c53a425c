package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cellcache"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture builds a deterministic fleet snapshot: one healthy worker with
// a self-reported status, one unreachable, an active job mid-stage, both
// cache tiers populated and a short time-series window.
func fixture() fleetStatus {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	started := t0.Add(-90 * time.Second)
	workerStatus := service.StatusSnapshot{
		Service:    "bdservd",
		PID:        7001,
		GoVersion:  "go1.24.4",
		Goroutines: 42,
		Jobs:       service.JobsByState{Running: 1, Done: 3},
		Queue:      service.QueueStatus{Depth: 0, Capacity: 64, Workers: 1, Busy: 1},
		CellCache: &cellcache.Stats{
			Entries: 40, Hits: 36, Misses: 12, HitRatio: 0.75,
		},
	}
	return fleetStatus{
		StatusSnapshot: service.StatusSnapshot{
			Service:       "bdcoord",
			PID:           4242,
			GoVersion:     "go1.24.4",
			Goroutines:    87,
			UptimeSeconds: 3725,
			Now:           t0,
			Queue:         service.QueueStatus{Depth: 1, Capacity: 64, Workers: 2, Busy: 1},
			Jobs:          service.JobsByState{Queued: 1, Running: 1, Done: 14},
			ActiveJobs: []service.ActiveJob{{
				ID: "0a1b2c3d4e5f60718293a4b5c6d7e8f9", State: service.StateRunning,
				Stage: "characterize", CellsDone: 1234, CellsTotal: 2000,
				CreatedAt: t0.Add(-5 * time.Minute), StartedAt: &started,
			}},
			ResultCache: service.CacheTierStatus{
				Entries: 4, Hits: 10, Misses: 4, MemoryHits: 8, DiskHits: 2,
				HitRatio: 10.0 / 14.0,
			},
			CellCache: &cellcache.Stats{
				Entries: 88, DiskBytes: 1 << 20, MaxEntries: 4096,
				Hits: 40, Misses: 48, Stores: 50, Evicted: 2, HitRatio: 40.0 / 88.0,
				ByWorkload: []cellcache.WorkloadStats{
					{Workload: "bayes", Hits: 4, Misses: 20, HitRatio: 4.0 / 24.0},
					{Workload: "kmeans", Hits: 36, Misses: 28, HitRatio: 36.0 / 64.0},
				},
			},
			JobRecords: service.JobRecordsStatus{Enabled: true, Entries: 16, Healthy: true},
			Stages: []service.StageLatency{
				{Stage: "characterize", Count: 15, P50: 8.2, P95: 14.0, P99: 19.5},
				{Stage: "analyze", Count: 14, P50: 0.4, P95: 0.9, P99: 1.2},
			},
			Window: &obs.Window{
				IntervalSeconds: 5, Capacity: 120, End: t0,
				Series: []obs.SeriesWindow{
					{Name: "queue_depth", Kind: "level", Points: []float64{0, 0, 1, 2, 3, 2, 1, 1}},
					{Name: "units_done_per_sec", Kind: "rate", Points: []float64{0, 0.4, 1.2, 3.1, 2.8, 2.2, 1.9, 2.4}},
					{Name: "cellcache_hit_ratio", Kind: "ratio", Points: []float64{0, 0, 0.2, 0.4, 0.45, 0.45, 0.46, 0.45}},
				},
			},
		},
		Fleet: []shard.WorkerFleetStatus{
			{
				WorkerStatus: shard.WorkerStatus{
					URL: "http://127.0.0.1:9001", Breaker: shard.BreakerClosed,
					UnitsDone: 12, UnitsPerSecond: 0.2, UnitDurationP95: 12.5,
				},
				Status: &workerStatus,
			},
			{
				WorkerStatus: shard.WorkerStatus{
					URL: "http://127.0.0.1:9002", Breaker: shard.BreakerOpen,
					UnitsDone: 3, UnitsFailed: 4,
				},
				StatusError: "Get \"http://127.0.0.1:9002/v1/status\": connection refused",
			},
		},
	}
}

func TestRenderFrameGolden(t *testing.T) {
	st := fixture()
	frame := renderFrame(st, st.Now, 100)
	golden := filepath.Join("testdata", "frame.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(frame), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if frame != string(want) {
		t.Errorf("frame drifted from golden (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s", frame, want)
	}
}

// The frame must carry the tokens the smoke script greps for.
func TestRenderFrameSmokeTokens(t *testing.T) {
	st := fixture()
	frame := renderFrame(st, st.Now, 100)
	for _, tok := range []string{
		"FLEET  2 workers",
		"units done 15",
		"open breakers 1",
		"unreachable: ",
		"cell cache",
		"ratio 0.45",
		"kmeans",
		"bdservd jobs r1/q0",
	} {
		if !strings.Contains(frame, tok) {
			t.Errorf("frame missing token %q\n%s", tok, frame)
		}
	}
}

func TestRenderFrameDegradedAndEmpty(t *testing.T) {
	var st fleetStatus
	st.Service = "bdservd"
	st.JobRecords = service.JobRecordsStatus{Enabled: true, Healthy: false, Detail: "write failed: disk full"}
	frame := renderFrame(st, time.Unix(0, 0), 0)
	if !strings.Contains(frame, "RECORDS DEGRADED: write failed: disk full") {
		t.Errorf("degraded job records not surfaced:\n%s", frame)
	}
	// No fleet array (plain bdservd): no FLEET section, no panic.
	if strings.Contains(frame, "FLEET") {
		t.Errorf("fleet section rendered without fleet data:\n%s", frame)
	}
}

func TestFetchStatusRoundTrip(t *testing.T) {
	st := fixture()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/status" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(st)
	}))
	defer srv.Close()

	got, err := fetchStatus(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != "bdcoord" || len(got.Fleet) != 2 {
		t.Fatalf("decoded service=%q fleet=%d", got.Service, len(got.Fleet))
	}
	if got.Fleet[0].Status == nil || got.Fleet[0].Status.CellCache.Hits != 36 {
		t.Fatalf("worker self-status lost in decode: %+v", got.Fleet[0])
	}
	if got.Fleet[1].StatusError == "" {
		t.Fatal("status_error lost in decode")
	}
	if got.Window == nil || len(got.Window.Series) != 3 {
		t.Fatalf("window lost in decode: %+v", got.Window)
	}
}

func TestFetchStatusNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := fetchStatus(context.Background(), srv.Client(), srv.URL); err == nil {
		t.Fatal("expected error on 500")
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil, 10); s != "" {
		t.Fatalf("empty sparkline = %q", s)
	}
	s := sparkline([]float64{0, 1, 2, 3}, 10)
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length = %d, want 4", len([]rune(s)))
	}
	if r := []rune(s); r[0] != sparkRunes[0] || r[3] != sparkRunes[len(sparkRunes)-1] {
		t.Fatalf("sparkline endpoints wrong: %q", s)
	}
	// Flat series draws low, width truncates to the newest points.
	if s := sparkline([]float64{5, 5, 5}, 2); []rune(s)[0] != sparkRunes[0] || len([]rune(s)) != 2 {
		t.Fatalf("flat/truncated sparkline = %q", s)
	}
}
