package daemon

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// testFlags parses the shared flags for a quiet daemon on args.
func testFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs, ":8356", "unused-data")
	if err := fs.Parse(append([]string{"-log-level", "error", "-stats-interval", "0"}, args...)); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs, ":8360", "bdcoord-data")
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	sort.Strings(names)
	want := []string{"addr", "cache-entries", "cell-cache", "cell-cache-entries", "cell-cache-max-age",
		"data-dir", "drain-timeout", "log-format", "log-level", "max-jobs", "parallelism", "pprof-addr",
		"queue", "stats-interval", "status-tick", "status-window", "trace-buffer"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("shared flags %v, want %v", names, want)
	}
	for name, def := range map[string]string{
		"addr": ":8360", "data-dir": "bdcoord-data", "queue": "64", "cache-entries": "256",
		"max-jobs": "1024", "parallelism": "0", "cell-cache": "auto", "drain-timeout": "30s",
		"stats-interval": "1m0s", "trace-buffer": "2048", "status-tick": "5s", "status-window": "10m0s",
	} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default %q, want %q", name, got, def)
		}
	}
}

func TestDataDirLayout(t *testing.T) {
	if got, want := (&Flags{DataDir: "d"}).dataPath("cells"), filepath.Join("d", "cells"); got != want {
		t.Errorf("cell cache at %q, want %q", got, want)
	}
	if got := (&Flags{}).dataPath("cells"); got != "" {
		t.Errorf("cell cache without a data dir at %q, want none", got)
	}
	// in roots a test directory under one temp dir; "" and "auto" pass.
	root := t.TempDir()
	in := func(name string) string {
		if name == "" || name == "auto" {
			return name
		}
		return filepath.Join(root, name)
	}
	for _, c := range []struct{ dataDir, cellCache, want string }{
		{"d1", "auto", filepath.Join("d1", "cells")},
		{"d2", "", ""},
		{"d3", "elsewhere", "elsewhere"},
		{"", "auto", ""},
	} {
		d, err := Bind("test", testFlags(t, "-addr", "127.0.0.1:0", "-data-dir", in(c.dataDir), "-cell-cache", in(c.cellCache)))
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		if (d.Cells != nil) != (c.want != "") {
			t.Errorf("data-dir %q, cell-cache %q: store opened %v, want %v", c.dataDir, c.cellCache, d.Cells != nil, c.want != "")
		}
		if c.want == "" {
			continue
		}
		if _, err := os.Stat(in(c.want)); err != nil {
			t.Errorf("data-dir %q, cell-cache %q: no store at %s: %v", c.dataDir, c.cellCache, c.want, err)
		}
	}
}

func statusOf(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeAndShutdown boots the shared bootstrap in-process on a free
// port: it answers /healthz, caps request bodies, runs the role's hooks,
// and returns once its context is canceled.
func TestServeAndShutdown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	d, err := Bind("bdservd", testFlags(t, "-addr", "127.0.0.1:0", "-data-dir", dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Cells == nil {
		t.Fatal("cell store not opened under <data-dir>/cells")
	}
	mgr, err := d.NewManager(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serving, stopped := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- d.Serve(ctx, service.NewHandler(mgr), Hooks{
			Serving: func(context.Context) func() {
				close(serving)
				return func() { close(stopped) }
			},
		})
	}()
	<-serving
	base := "http://" + d.Addr().String()

	if code := statusOf(t, "GET", base+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("/healthz: %d, want 200", code)
	}
	huge := `{"workloads":["` + strings.Repeat("a", MaxBodyBytes) + `"]}`
	if code := statusOf(t, "POST", base+"/v1/jobs", huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /v1/jobs with a %d-byte body: %d, want 413", len(huge), code)
	}
	if code := statusOf(t, "POST", base+"/v1/jobs", `{"bogus":1}`); code != http.StatusBadRequest {
		t.Errorf("POST /v1/jobs with an unknown field: %d, want 400", code)
	}
	if code := statusOf(t, "GET", base+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("/healthz after an oversized body: %d, want 200", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs")); err != nil {
		t.Errorf("job records not at <data-dir>/jobs: %v", err)
	}
	var keys []string
	for _, a := range d.stats(Hooks{Stats: func() []slog.Attr { return []slog.Attr{slog.Int("fleet_workers", 2)} }}) {
		keys = append(keys, a.Key)
	}
	if got, want := strings.Join(keys, " "), "queued running done failed canceled queue_depth cache_hits cache_misses cache_entries fleet_workers"; got != want {
		t.Errorf("stats line keys %q, want %q", got, want)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after cancel: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after its context was canceled")
	}
	select {
	case <-stopped:
	default:
		t.Error("the Serving hook's stop function did not run on shutdown")
	}
}

// TestBindPortHeld pins the startup order: with the listen address
// already taken, Bind fails before anything exists under <data-dir> — no
// job records to read back, no cell store.
func TestBindPortHeld(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := filepath.Join(t.TempDir(), "data")
	d, err := Bind("bdcoord", testFlags(t, "-addr", ln.Addr().String(), "-data-dir", dir))
	if err == nil {
		d.Close()
		t.Fatal("Bind succeeded on a held port")
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs")); !os.IsNotExist(err) {
		t.Errorf("failed Bind left a job-record store (stat: %v)", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("failed Bind created <data-dir> (stat: %v)", err)
	}
}
