// Command bdcoord is the shard coordinator: it serves the same /v1/jobs
// API as bdservd, but instead of executing jobs in-process it tiles each
// job's characterization grid (on the workload×node axes) into many
// small work units and feeds them through a work-stealing dispatch loop
// over a set of bdservd workers: each worker pulls its next unit the
// moment the previous one completes, so fast workers naturally drain the
// tail slow ones would stall on; units from failed or stalled workers
// are re-queued. Per-worker circuit breakers — fed by unit outcomes and
// a background /healthz prober (-probe-interval, -breaker-threshold) —
// keep dead workers out of rotation between jobs, and a successful
// half-open probe is what re-admits one when it recovers; /v1/workers
// exposes the live state.
// Per-unit NDJSON progress is multiplexed into one merged event stream
// and the unit observation matrices are deterministically re-assembled
// before the statistical pipeline runs once, coordinator-side. The
// merged result is byte-identical (same content hash) to a single-daemon
// run of the same spec at any worker count.
//
// Fleet membership is elastic: -workers seeds permanent members, and
// further workers join/leave at runtime through POST/DELETE /v1/workers
// under heartbeat leases (bdservd -register automates this). Running
// jobs pick up joins and leaves mid-flight.
//
// Usage:
//
//	bdcoord [-workers http://h1:8356,http://h2:8356] [-addr :8360]
//	        [-data-dir bdcoord-data] [-queue 64] [-cache-entries 256]
//	        [-max-jobs 1024] [-parallelism 0] [-concurrent-jobs 1]
//	        [-stall-timeout 5m] [-probe-interval 15s]
//	        [-breaker-threshold 3] [-units-per-worker 4]
//	        [-cell-cache auto] [-cell-cache-entries 0]
//	        [-cell-cache-max-age 0] [-drain-timeout 30s]
//	        [-log-level info] [-log-format text] [-stats-interval 1m]
//	        [-status-tick 5s] [-status-window 10m]
//	        [-trace-buffer 2048] [-pprof-addr localhost:6061]
//
// The flags shared with bdservd, the startup (bind -addr first, then
// read the job records back) and the shutdown order live in
// internal/daemon.
// GET /metrics serves the Prometheus text exposition covering both the
// job-manager layer (queue, cache, job records, per-stage timing) and the
// shard layer (per-worker units, breakers, probes, leases) from one
// shared registry; see DESIGN.md §9. GET /v1/status serves the merged
// operational snapshot — coordinator state, cell cache, time-series
// window, and a fleet view with every worker's self-reported status —
// rendered live by cmd/bdtop; see DESIGN.md §12. Each worker's status
// fetch in that fan-out is bounded at 2s.
//
// The coordinator keeps its own content-addressed result cache, its
// job records and a cell cache (all under -data-dir): repeated
// grids are served without touching the workers, job metadata survives
// restarts, and a coordinator killed mid-job re-adopts the job on restart
// and dispatches only the workload×node columns its cell cache lacks.
// With -cell-cache "" a re-adopted job re-runs every unit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"
	"unicode"

	"repro/internal/daemon"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/shard"
)

func main() { daemon.Main("bdcoord", run) }

// statusWorkerTimeout bounds each worker's status fetch in the
// /v1/status fleet fan-out.
const statusWorkerTimeout = 2 * time.Second

func run(ctx context.Context) error {
	f := daemon.RegisterFlags(flag.CommandLine, ":8360", "bdcoord-data")
	var (
		workers = flag.String("workers", "", "comma-separated bdservd worker base URLs seeding the fleet (optional: workers may instead join at runtime via POST /v1/workers)")
		conc    = flag.Int("concurrent-jobs", 1, "concurrently coordinated jobs")
		stall   = flag.Duration("stall-timeout", 5*time.Minute, "per-unit worker inactivity bound before re-queue")
		probe   = flag.Duration("probe-interval", 15*time.Second, "worker /healthz probe period; a successful probe is what re-admits a worker whose breaker opened")
		brk     = flag.Int("breaker-threshold", 3, "consecutive failures (units + probes) that open a worker's circuit breaker")
		upw     = flag.Int("units-per-worker", 4, "target work units planned per worker (work-stealing granularity)")
	)
	flag.Parse()
	if *conc < 1 || *brk < 1 || *upw < 1 {
		return fmt.Errorf("-concurrent-jobs, -breaker-threshold and -units-per-worker must be ≥1")
	}
	if *probe <= 0 || *stall <= 0 {
		return fmt.Errorf("-probe-interval and -stall-timeout must be > 0")
	}
	// shard.New trims and validates each seeded URL.
	urls := strings.FieldsFunc(*workers, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })

	// One registry spans both layers: the manager's queue/cache/record
	// metrics and the executor's fleet metrics render on the same
	// /metrics endpoint.
	d, err := daemon.Bind("bdcoord", f, shard.FleetSeriesDefs()...)
	if err != nil {
		return err
	}
	defer d.Close()
	if len(urls) == 0 {
		d.Log.Info("no -workers seed; waiting for runtime registrations (bdservd -register)")
	}
	// Surface obviously dead workers at startup — advisory only: workers
	// may come and go, and per-shard failover handles them at job time.
	for _, u := range urls {
		hctx, stop := context.WithTimeout(ctx, 2*time.Second)
		if err := client.New(u).Health(hctx); err != nil {
			d.Log.Warn("seeded worker not healthy at startup", "worker", u, "error", err)
		}
		stop()
	}
	if f.DataDir != "" && d.Cells == nil {
		d.Log.Warn("cell cache disabled: jobs re-adopted after a restart re-run every unit")
	}
	exec, err := shard.New(shard.Config{
		Workers:          urls,
		Parallelism:      f.Parallelism,
		StallTimeout:     *stall,
		ProbeInterval:    *probe,
		BreakerThreshold: *brk,
		UnitsPerWorker:   *upw,
		Cells:            d.Cells,
		Registry:         d.Registry,
		Logger:           d.Log,
	})
	if err != nil {
		return err
	}
	defer exec.Close()
	mgr, err := d.NewManager(service.Config{Workers: *conc, Execute: exec.Execute})
	if err != nil {
		return err
	}

	// The coordinator's API is the stock jobs API plus /v1/workers: GET
	// lists the fleet's live breaker/health/lease state, POST registers
	// (or heartbeat-renews) a worker, DELETE releases its lease.
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(mgr))
	// /v1/status here overrides the inner handler's route (the more
	// specific pattern wins): the manager's snapshot plus a fleet view
	// with every registered worker's coordinator-side record and the
	// worker's own self-reported snapshot (bounded concurrency,
	// per-worker timeout, failures isolated per row).
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, struct {
			service.StatusSnapshot
			Fleet []shard.WorkerFleetStatus `json:"fleet"`
		}{mgr.Status(), exec.FleetStatus(r.Context(), statusWorkerTimeout)})
	})
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, exec.WorkerStatuses())
	})
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var reg client.WorkerRegistration
		if !service.DecodeJSON(w, r, "registration", &reg) {
			return
		}
		st, err := exec.Register(reg.URL, time.Duration(reg.TTLSeconds*float64(time.Second)))
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		u := r.URL.Query().Get("url")
		if u == "" {
			service.WriteError(w, http.StatusBadRequest, fmt.Errorf("missing url query parameter"))
			return
		}
		if !exec.Deregister(u) {
			service.WriteError(w, http.StatusNotFound, fmt.Errorf("worker %q is not a fleet member", u))
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "deregistered", "url": u})
	})

	// Jobs still running when the drain times out are cut short without
	// a terminal job record, so the next incarnation re-adopts them
	// and (thanks to the cell cache) dispatches only the columns not yet
	// stored.
	return d.Serve(ctx, mux, daemon.Hooks{Stats: func() []slog.Attr {
		ws := exec.WorkerStatuses()
		unitsDone, open := 0, 0
		for _, w := range ws {
			unitsDone += w.UnitsDone
			if w.Breaker != shard.BreakerClosed {
				open++
			}
		}
		return append([]slog.Attr{
			slog.Int("fleet_workers", len(ws)), slog.Int("breakers_not_closed", open),
			slog.Int("fleet_units_done", unitsDone),
		}, daemon.Quantiles(d.Registry, "bd_worker_unit_duration_seconds", "unit")...)
	}})
}
