// Command bdcoord is the shard coordinator: it serves the same /v1/jobs
// API as bdservd, but instead of executing jobs in-process it tiles each
// job's characterization grid (on the workload×node axes) into many
// small work units and feeds them through a work-stealing dispatch loop
// over a set of bdservd workers: each worker pulls its next unit the
// moment the previous one completes, so fast workers naturally drain the
// tail slow ones would stall on; units from failed or stalled workers
// are re-queued. Per-worker circuit breakers — fed by unit outcomes and
// a background /healthz prober (-probe-interval, -breaker-threshold) —
// keep dead workers out of rotation between jobs, and half-open probes
// re-admit them when they recover; /v1/workers exposes the live state.
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
//	        [-status-worker-timeout 2s]
//	        [-trace-buffer 2048] [-pprof-addr localhost:6061]
//
// GET /metrics serves the Prometheus text exposition covering both the
// job-manager layer (queue, cache, journal, per-stage timing) and the
// shard layer (per-worker units, breakers, probes, leases) from one
// shared registry; see DESIGN.md §9. GET /v1/status serves the merged
// operational snapshot — coordinator state, cell cache, time-series
// window, and a fleet view with every worker's self-reported status —
// rendered live by cmd/bdtop; see DESIGN.md §12.
//
// The coordinator keeps its own content-addressed result cache, a
// persistent job journal and a cell cache (all under -data-dir): repeated
// grids are served without touching the workers, job metadata survives
// restarts, and a coordinator killed mid-job re-adopts the job on restart
// and dispatches only the workload×node columns its cell cache lacks.
// With -cell-cache "" a re-adopted job re-runs every unit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/shard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bdcoord:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", ":8360", "listen address")
		workers = flag.String("workers", "", "comma-separated bdservd worker base URLs seeding the fleet (optional: workers may instead join at runtime via POST /v1/workers)")
		dataDir = flag.String("data-dir", "bdcoord-data", "on-disk result store + journal + cell cache ('' = memory only, no crash recovery)")
		queue   = flag.Int("queue", 64, "max queued jobs")
		entries = flag.Int("cache-entries", 256, "in-memory LRU result entries")
		maxJobs = flag.Int("max-jobs", 1024, "max retained job records (oldest terminal evicted)")
		par     = flag.Int("parallelism", 0, "coordinator-side analysis parallelism (0 = GOMAXPROCS)")
		conc    = flag.Int("concurrent-jobs", 1, "concurrently coordinated jobs")
		stall   = flag.Duration("stall-timeout", 5*time.Minute, "per-unit worker inactivity bound before re-queue")
		probe   = flag.Duration("probe-interval", 15*time.Second, "worker /healthz probe period (negative disables; open breakers then re-admit via half-open dispatch trials)")
		brk     = flag.Int("breaker-threshold", 3, "consecutive failures (units + probes) that open a worker's circuit breaker")
		upw     = flag.Int("units-per-worker", 4, "target work units planned per worker (work-stealing granularity)")
		cellDir = flag.String("cell-cache", "auto",
			"shared cell-level result cache dir ('auto' = <data-dir>/cells, '' = disabled): fully cached units are assembled coordinator-side and never dispatched")
		cellEntries = flag.Int("cell-cache-entries", 0,
			"max on-disk cell cache entries (0 = default)")
		cellMaxAge = flag.Duration("cell-cache-max-age", 0,
			"evict cell-cache entries older than this (mtime sweep; 0 = no age bound)")
		drain = flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT: how long to let in-flight jobs finish before cutting them short (they re-adopt on restart)")

		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text, json")
		statsIvl  = flag.Duration("stats-interval", time.Minute,
			"period of the one-line INFO fleet summary (0 disables)")
		traceBuf = flag.Int("trace-buffer", 2048,
			"per-job flight-recorder span capacity (0 disables tracing)")
		statusTick = flag.Duration("status-tick", 5*time.Second,
			"sampling tick of the /v1/status time-series window")
		statusWindow = flag.Duration("status-window", 10*time.Minute,
			"trailing extent of the /v1/status time-series window")
		statusTimeout = flag.Duration("status-worker-timeout", 2*time.Second,
			"per-worker timeout of the /v1/status fleet fan-out")
		pprofAddr = flag.String("pprof-addr", "",
			"listen address for net/http/pprof (e.g. localhost:6061; empty = disabled; bind to localhost unless you mean to expose profiles)")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	if *queue < 1 || *entries < 1 || *maxJobs < 1 || *conc < 1 || *par < 0 {
		return fmt.Errorf("-queue, -cache-entries, -max-jobs and -concurrent-jobs must be ≥1 and -parallelism ≥0")
	}
	if *brk < 1 || *upw < 1 {
		return fmt.Errorf("-breaker-threshold and -units-per-worker must be ≥1")
	}
	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		logger.Info("no -workers seed; waiting for runtime registrations (bdservd -register)")
	}

	// Surface obviously dead workers at startup — advisory only: workers
	// may come and go, and per-shard failover handles them at job time.
	for _, u := range urls {
		ctx, stop := context.WithTimeout(context.Background(), 2*time.Second)
		if err := client.New(u).Health(ctx); err != nil {
			logger.Warn("seeded worker not healthy at startup", "worker", u, "error", err)
		}
		stop()
	}

	journal := ""
	if *dataDir != "" {
		journal = filepath.Join(*dataDir, "journal.ndjson")
	}
	cellCacheDir := *cellDir
	if cellCacheDir == "auto" {
		cellCacheDir = ""
		if *dataDir != "" {
			cellCacheDir = filepath.Join(*dataDir, "cells")
		}
	}
	if journal != "" && cellCacheDir == "" {
		logger.Warn("cell cache disabled: jobs re-adopted after a restart re-run every unit")
	}
	// One registry spans both layers: the manager's queue/cache/journal
	// metrics and the executor's fleet metrics render on the same
	// /metrics endpoint.
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	sampler := obs.NewSampler(reg, *statusTick, *statusWindow,
		append(service.StatusSeriesDefs(), shard.FleetSeriesDefs()...))
	exec, err := shard.New(shard.Config{
		Workers:          urls,
		Parallelism:      *par,
		StallTimeout:     *stall,
		ProbeInterval:    *probe,
		BreakerThreshold: *brk,
		UnitsPerWorker:   *upw,
		CellCacheDir:     cellCacheDir,
		CellCacheEntries: *cellEntries,
		CellCacheMaxAge:  *cellMaxAge,
		Registry:         reg,
		Logger:           logger,
	})
	if err != nil {
		return err
	}
	defer exec.Close()
	// Flag semantics (0 = off) map to the config's (negative = off).
	traceSpans := *traceBuf
	if traceSpans == 0 {
		traceSpans = -1
	}
	mgr, err := service.New(service.Config{
		DataDir:      *dataDir,
		Workers:      *conc,
		QueueDepth:   *queue,
		CacheEntries: *entries,
		MaxJobs:      *maxJobs,
		JournalPath:  journal,
		Execute:      exec.Execute,
		TraceBuffer:  traceSpans,
		TraceService: "bdcoord",
		Registry:     reg,
		Sampler:      sampler,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	defer mgr.Close()
	stopSampler := sampler.Start()
	defer stopSampler()

	if *pprofAddr != "" {
		stopPprof, err := obs.StartPprof(*pprofAddr, logger)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	// The coordinator's API is the stock jobs API plus /v1/workers: GET
	// lists the fleet's live breaker/health/lease state, POST registers
	// (or heartbeat-renews) a worker, DELETE releases its lease.
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(mgr))
	// /v1/status here overrides the inner handler's route (the more
	// specific pattern wins): the coordinator serves the same manager
	// snapshot with two additions — its cell cache lives in the shard
	// executor, not the manager (Execute is overridden), and the fleet
	// view appends every registered worker's coordinator-side record plus
	// the worker's own self-reported snapshot (bounded concurrency,
	// per-worker timeout, failures isolated per row).
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		snap := mgr.Status()
		if cs, ok := exec.CellCacheStats(); ok {
			snap.CellCache = &cs
		}
		fleet := exec.FleetStatus(r.Context(), *statusTimeout)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			service.StatusSnapshot
			Fleet []shard.WorkerFleetStatus `json:"fleet"`
		}{snap, fleet})
	})
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(exec.WorkerStatuses())
	})
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var reg client.WorkerRegistration
		if err := dec.Decode(&reg); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding registration: %w", err))
			return
		}
		st, err := exec.Register(reg.URL, time.Duration(reg.TTLSeconds*float64(time.Second)))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("DELETE /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		u := r.URL.Query().Get("url")
		if u == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("missing url query parameter"))
			return
		}
		if !exec.Deregister(u) {
			httpError(w, http.StatusNotFound, fmt.Errorf("worker %q is not a fleet member", u))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "deregistered", "url": u})
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           obs.LogRequests(mux, logger, reg),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("bdcoord listening", "addr", *addr, "seeded_workers", len(urls), "workers", strings.Join(urls, ", "))

	stopStats := obs.StartStatsTicker(logger, *statsIvl, func() []slog.Attr {
		st := mgr.Stats()
		ws := exec.WorkerStatuses()
		unitsDone, open := 0, 0
		for _, w := range ws {
			unitsDone += w.UnitsDone
			if w.Breaker != shard.BreakerClosed {
				open++
			}
		}
		attrs := []slog.Attr{
			slog.Int("queued", st.Queued), slog.Int("running", st.Running),
			slog.Int("done", st.Done), slog.Int("failed", st.Failed),
			slog.Int("queue_depth", st.QueueDepth),
			slog.Uint64("cache_hits", st.Cache.Hits), slog.Uint64("cache_misses", st.Cache.Misses),
			slog.Int("fleet_workers", len(ws)), slog.Int("breakers_not_closed", open),
			slog.Int("fleet_units_done", unitsDone),
		}
		if h, ok := reg.ReadHistogram("bd_worker_unit_duration_seconds"); ok && h.Count > 0 {
			q := h.Quantiles(0.50, 0.95, 0.99)
			attrs = append(attrs,
				slog.Float64("unit_p50_s", q[0]),
				slog.Float64("unit_p95_s", q[1]),
				slog.Float64("unit_p99_s", q[2]))
		}
		return attrs
	})
	defer stopStats()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting connections, let in-flight jobs
	// drain within -drain-timeout, then Close — which cuts any stragglers
	// short WITHOUT journaling a terminal record, so the next incarnation
	// re-adopts them and (thanks to the cell cache) dispatches only the
	// columns not yet stored.
	logger.Info("bdcoord shutting down", "drain_timeout", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if !mgr.Drain(*drain) {
		logger.Warn("drain timeout: cutting in-flight jobs short (they will be re-adopted on restart)")
	}
	return nil
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
