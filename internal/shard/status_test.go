package shard

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// deadWorkerURL reserves a loopback port and closes it, yielding an
// address that refuses connections for the life of the test.
func deadWorkerURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

// TestFleetStatusPartialFleet: one live worker and one dead one. The
// fleet view must return a row per member, with the live worker's
// self-reported snapshot attached and the dead worker isolated to a
// StatusError row — never an error for the whole fleet.
func TestFleetStatusPartialFleet(t *testing.T) {
	live := startWorker(t, service.Config{Workers: 1, TraceService: "bdservd"})
	dead := deadWorkerURL(t)

	exec, err := New(fastCoordConfig([]string{live.url, dead}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)

	rows := exec.FleetStatus(context.Background(), 500*time.Millisecond)
	if len(rows) != 2 {
		t.Fatalf("fleet rows = %d, want 2", len(rows))
	}
	byURL := map[string]WorkerFleetStatus{}
	for _, r := range rows {
		if r.URL == "" {
			t.Fatalf("row missing coordinator-side WorkerStatus: %+v", r)
		}
		byURL[r.URL] = r
	}

	lr, ok := byURL[live.url]
	if !ok {
		t.Fatalf("live worker %s missing from fleet view: %+v", live.url, rows)
	}
	if lr.StatusError != "" {
		t.Fatalf("live worker reported error: %s", lr.StatusError)
	}
	if lr.Status == nil || lr.Status.Service != "bdservd" || lr.Status.PID == 0 {
		t.Fatalf("live worker self-status incomplete: %+v", lr.Status)
	}

	dr, ok := byURL[dead]
	if !ok {
		t.Fatalf("dead worker %s missing from fleet view: %+v", dead, rows)
	}
	if dr.Status != nil {
		t.Fatalf("dead worker has a snapshot: %+v", dr.Status)
	}
	if dr.StatusError == "" {
		t.Fatal("dead worker row carries no StatusError")
	}
}

// TestFleetStatusTimeoutIsolated: a worker that accepts connections but
// never answers within the per-worker budget becomes a StatusError row;
// the fan-out as a whole returns promptly instead of hanging on it.
func TestFleetStatusTimeoutIsolated(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept and go silent
		}
	}()

	exec, err := New(fastCoordConfig([]string{"http://" + ln.Addr().String()}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)

	start := time.Now()
	rows := exec.FleetStatus(context.Background(), 300*time.Millisecond)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("fan-out took %s despite 300ms per-worker timeout", elapsed)
	}
	if len(rows) != 1 || rows[0].StatusError == "" {
		t.Fatalf("silent worker not isolated: %+v", rows)
	}
}

// TestFleetViewsUnderMembershipChurn: members deregister and re-register
// in a loop while the fleet views are read. Each view is built from one
// membership snapshot, so every call returns one row per member — a
// known URL, listed once — and each FleetStatus row carries the status
// fetched from its own worker (the stub echoes its host as the service
// name), never a neighbour's.
func TestFleetViewsUnderMembershipChurn(t *testing.T) {
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, service.StatusSnapshot{Service: r.Host})
	})
	urls := make([]string, 4)
	known := map[string]bool{}
	for i := range urls {
		urls[i] = startHTTP(t, stub)
		known[urls[i]] = true
	}
	cfg := fastCoordConfig(urls)
	cfg.ProbeInterval = time.Hour
	exec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := urls[i%len(urls)]
			exec.Deregister(u)
			if _, err := exec.Register(u, 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	checkRows := func(call int, rows []WorkerStatus) error {
		seen := map[string]bool{}
		for _, r := range rows {
			if r.URL == "" || !known[r.URL] || seen[r.URL] {
				return fmt.Errorf("call %d: row URL %q is empty, unknown or repeated in %d rows", call, r.URL, len(rows))
			}
			seen[r.URL] = true
		}
		return nil
	}
	for call := 0; call < 2000; call++ {
		rows := exec.FleetStatus(context.Background(), time.Second)
		ws := make([]WorkerStatus, len(rows))
		for i, r := range rows {
			ws[i] = r.WorkerStatus
			if r.Status == nil {
				t.Fatalf("call %d: row %s has no status: %s", call, r.URL, r.StatusError)
			}
			if want := strings.TrimPrefix(r.URL, "http://"); r.Status.Service != want {
				t.Fatalf("call %d: row %s carries the status of %s", call, r.URL, r.Status.Service)
			}
		}
		if err := checkRows(call, ws); err != nil {
			t.Fatal(err)
		}
		if err := checkRows(call, exec.WorkerStatuses()); err != nil {
			t.Fatal(err)
		}
	}
}
