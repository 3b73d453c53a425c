// Command bdservd serves the characterization + subsetting pipeline as a
// long-running HTTP service: clients POST jobs (a workload selection plus
// cluster/analysis configuration), the daemon executes them on a bounded
// pool over the parallel measurement grid, and identical submissions are
// deduplicated through a content-addressed result cache (in-memory LRU
// plus an on-disk JSON store under -data-dir).
//
// Job metadata is bounded (-max-jobs evicts the oldest terminal records)
// and persisted: with a -data-dir, each job's record lives at
// <data-dir>/jobs/<id>.json and is read back on boot, so a restarted
// daemon still serves previously completed jobs' status and results and
// re-adopts the jobs it left unfinished. The daemon binds -addr before
// it reads anything, so a port clash exits without side effects. With -characterize-only the daemon accepts only
// observation-matrix jobs — the worker role behind a bdcoord shard
// coordinator. With -register it self-registers with a coordinator
// under a heartbeat lease (renewed every lease-ttl/3, retried with
// backoff across coordinator restarts) once it is serving, and releases
// the lease on shutdown. The flags shared with bdcoord, the startup and
// the shutdown order live in internal/daemon.
//
// Usage:
//
//	bdservd [-addr :8356] [-data-dir bdservd-data] [-workers 1]
//	        [-queue 64] [-cache-entries 256] [-max-jobs 1024]
//	        [-cell-cache auto] [-cell-cache-entries 0]
//	        [-cell-cache-max-age 0] [-characterize-only] [-parallelism 0]
//	        [-throttle-cell 0] [-drain-timeout 30s]
//	        [-log-level info] [-log-format text] [-stats-interval 1m]
//	        [-status-tick 5s] [-status-window 10m]
//	        [-trace-buffer 2048] [-pprof-addr localhost:6060]
//	        [-register http://coord:8360 -advertise http://thishost:8356
//	         -lease-ttl 30s]
//
// API (see DESIGN.md §4 for the full reference):
//
//	POST   /v1/jobs             submit a job
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result canonical analysis result JSON
//	GET    /v1/jobs/{id}/events NDJSON progress stream
//	GET    /v1/jobs/{id}/trace  trace export (?format=chrome)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/cache/stats      cache counters
//	GET    /v1/status           full operational snapshot + time series
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() { daemon.Main("bdservd", run) }

func run(ctx context.Context) error {
	f := daemon.RegisterFlags(flag.CommandLine, ":8356", "bdservd-data")
	var (
		workers  = flag.Int("workers", 1, "concurrently executing jobs")
		charOnly = flag.Bool("characterize-only", false,
			"accept only observation-matrix jobs (shard-worker role)")
		throttle = flag.Duration("throttle-cell", 0,
			"artificial sleep per completed grid cell (testing knob: simulates a slow worker; never affects results)")
		register = flag.String("register", "",
			"bdcoord base URL to self-register with (elastic fleet membership under a heartbeat lease)")
		advertise = flag.String("advertise", "",
			"own base URL to register as, e.g. http://thishost:8356 (required with -register)")
		leaseTTL = flag.Duration("lease-ttl", 30*time.Second,
			"heartbeat lease length requested from the coordinator (with -register)")
	)
	flag.Parse()
	if *workers < 1 {
		return fmt.Errorf("-workers must be ≥1")
	}
	if *register != "" && *advertise == "" {
		return fmt.Errorf("-register requires -advertise (the URL the coordinator should dial this daemon at)")
	}
	if *leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive")
	}

	d, err := daemon.Bind("bdservd", f)
	if err != nil {
		return err
	}
	defer d.Close()
	mgr, err := d.NewManager(service.Config{Workers: *workers, CharacterizeOnly: *charOnly, CellDelay: *throttle})
	if err != nil {
		return err
	}
	var hooks daemon.Hooks
	if *register != "" {
		// The lease is released first on the way out: the coordinator
		// stops dispatching new units here and releases any it had in
		// flight before this daemon stops accepting connections.
		hooks.Serving = func(ctx context.Context) func() {
			return startHeartbeat(ctx, *register, *advertise, *leaseTTL, d.Log)
		}
	}
	return d.Serve(ctx, service.NewHandler(mgr), hooks)
}

// startHeartbeat maintains this worker's fleet membership on a
// coordinator: register with retry/backoff, then renew the lease every
// ttl/3 so a transient miss never lapses it. The returned function stops
// the renewals and releases the lease (best effort: an unreachable
// coordinator just expires it by TTL instead).
func startHeartbeat(ctx context.Context, coordURL, selfURL string, ttl time.Duration, logger *slog.Logger) (release func()) {
	c := client.New(coordURL)
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		registered := false
		backoff := time.Second
		for {
			rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
			err := c.RegisterWorker(rctx, selfURL, ttl.Seconds())
			rcancel()
			wait := ttl / 3
			switch {
			case err == nil && !registered:
				registered = true
				backoff = time.Second
				logger.Info("registered with coordinator", "coordinator", coordURL, "lease", ttl)
			case err != nil:
				// Keep trying: the coordinator may be restarting. Back off
				// so a long outage doesn't spin, but cap well under any
				// plausible lease so recovery is prompt.
				if registered {
					logger.Warn("heartbeat failed", "coordinator", coordURL, "error", err)
					registered = false
				}
				wait = backoff
				if backoff *= 2; backoff > 15*time.Second {
					backoff = 15 * time.Second
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
	}()
	return func() {
		cancel()
		wg.Wait()
		dctx, dcancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer dcancel()
		if err := c.DeregisterWorker(dctx, selfURL); err != nil {
			logger.Warn("lease release failed (will expire by TTL)", "error", err)
		}
	}
}
