// Package daemon is the bootstrap bdservd and bdcoord share: the flags
// whose meaning is the same in both, the logger, metrics registry, status
// sampler and pprof listener, the <data-dir> layout, the cell store, the
// HTTP server with its request-body cap, the INFO stats line, and the
// shutdown order. Each command keeps only its role: the flags, manager
// fields, routes and stats attributes that belong to it alone.
//
// A daemon starts in three steps. Bind claims the listen address first,
// so a port clash exits before anything touches <data-dir>, then opens
// the shared pieces; NewManager reads the job records back; Serve answers
// requests until its context ends, then shuts down in order.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cellcache"
	"repro/internal/obs"
	"repro/internal/service"
)

// MaxBodyBytes caps every request body a daemon reads; a body past it
// gets 413. The largest example job spec is under 1 KiB.
const MaxBodyBytes = 1 << 20

// Flags are the settings both daemons share, one per flag.
type Flags struct {
	Addr, DataDir                             string
	Queue, CacheEntries, MaxJobs, Parallelism int
	CellCache                                 string
	CellCacheEntries                          int
	CellCacheMaxAge, DrainTimeout             time.Duration
	LogLevel, LogFormat                       string
	StatsInterval                             time.Duration
	TraceBuffer                               int
	StatusTick, StatusWindow                  time.Duration
	PprofAddr                                 string
}

// RegisterFlags defines the shared flags on fs; addr and dataDir are the
// daemon's own defaults for -addr and -data-dir.
func RegisterFlags(fs *flag.FlagSet, addr, dataDir string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "addr", addr, "listen address")
	fs.StringVar(&f.DataDir, "data-dir", dataDir, "on-disk result store (<data-dir>/results), job records (<data-dir>/jobs) and cell cache ('' = memory only, no restart recovery)")
	fs.IntVar(&f.Queue, "queue", 64, "max queued jobs")
	fs.IntVar(&f.CacheEntries, "cache-entries", 256, "in-memory LRU result entries")
	fs.IntVar(&f.MaxJobs, "max-jobs", 1024, "max retained job records (oldest terminal evicted)")
	fs.IntVar(&f.Parallelism, "parallelism", 0, "per-job compute parallelism (0 = GOMAXPROCS)")
	fs.StringVar(&f.CellCache, "cell-cache", "auto", "cell-level result cache dir ('auto' = <data-dir>/cells, '' = disabled): caches one workload×node column per entry so overlapping suites compute only new cells")
	fs.IntVar(&f.CellCacheEntries, "cell-cache-entries", 0, "max on-disk cell cache entries (0 = default)")
	fs.DurationVar(&f.CellCacheMaxAge, "cell-cache-max-age", 0, "evict cell-cache entries older than this (mtime sweep; 0 = no age bound)")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 30*time.Second, "on SIGTERM/SIGINT: how long to let in-flight jobs finish before cutting them short (they re-adopt on restart)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&f.LogFormat, "log-format", "text", "log format: text, json")
	fs.DurationVar(&f.StatsInterval, "stats-interval", time.Minute, "period of the one-line INFO stats summary (0 disables)")
	fs.IntVar(&f.TraceBuffer, "trace-buffer", 2048, "per-job flight-recorder span capacity (0 disables tracing)")
	fs.DurationVar(&f.StatusTick, "status-tick", 5*time.Second, "sampling tick of the /v1/status time-series window")
	fs.DurationVar(&f.StatusWindow, "status-window", 10*time.Minute, "trailing extent of the /v1/status time-series window")
	fs.StringVar(&f.PprofAddr, "pprof-addr", "", "listen address for net/http/pprof (e.g. localhost:6060; empty = disabled; bind to localhost unless you mean to expose profiles)")
	return f
}

// dataPath is <data-dir>/name, or "" (disabled) without a data dir: the
// "auto" cell cache is <data-dir>/cells (the manager itself keeps results
// in <data-dir>/results and job records in <data-dir>/jobs).
func (f *Flags) dataPath(name string) string {
	if f.DataDir == "" {
		return ""
	}
	return filepath.Join(f.DataDir, name)
}

// Main runs a daemon under a context that SIGINT and SIGTERM cancel, and
// exits with status 1 if run fails.
func Main(name string, run func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Daemon is one daemon process from Bind to Close.
type Daemon struct {
	// Name tags log lines and trace spans: "bdservd" or "bdcoord".
	Name     string
	Log      *slog.Logger
	Registry *obs.Registry
	// Cells is the daemon's cell store, opened once; nil when the cell
	// cache is disabled.
	Cells *cellcache.Store

	flags   *Flags
	ln      net.Listener
	pprof   *http.Server // nil without -pprof-addr
	sampler *obs.Sampler
	mgr     *service.Manager
}

// Bind validates the shared flags, builds the logger and claims the
// listen address, then starts pprof, the metrics registry (with process
// metrics), the status sampler over the manager's series plus series, and
// opens the cell store. Nothing under <data-dir> is touched before the
// listener is bound.
func Bind(name string, f *Flags, series ...obs.SeriesDef) (*Daemon, error) {
	if f.Queue < 1 || f.CacheEntries < 1 || f.MaxJobs < 1 || f.Parallelism < 0 {
		return nil, fmt.Errorf("-queue, -cache-entries and -max-jobs must be ≥1 and -parallelism ≥0")
	}
	logger, err := obs.NewLogger(os.Stderr, f.LogLevel, f.LogFormat)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(logger)
	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		return nil, err
	}
	d := &Daemon{Name: name, Log: logger, flags: f, ln: ln, Registry: obs.NewRegistry()}
	if f.PprofAddr != "" {
		// Profiles expose heap contents and execution timing, so they get
		// their own opt-in listener and never the public port.
		pln, err := net.Listen("tcp", f.PprofAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		d.pprof = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go d.pprof.Serve(pln)
		logger.Info("pprof listening", "addr", pln.Addr().String())
	}
	obs.RegisterProcessMetrics(d.Registry)
	d.sampler = obs.NewSampler(d.Registry, f.StatusTick, f.StatusWindow, append(service.StatusSeriesDefs(), series...))
	dir := f.CellCache
	if dir == "auto" {
		dir = f.dataPath("cells")
	}
	if dir != "" {
		if d.Cells, err = cellcache.Open(dir, f.CellCacheEntries, f.CellCacheMaxAge, cellcache.NewMetrics(d.Registry)); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

// Addr is the bound listen address (the resolved port when -addr asked
// for port 0).
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// NewManager builds the daemon's job manager. cfg carries the role's
// fields (Workers, Execute, CharacterizeOnly, CellDelay); the shared
// flags and pieces fill the rest. It reads the job records back, so
// re-adopted jobs start here.
func (d *Daemon) NewManager(cfg service.Config) (*service.Manager, error) {
	f := d.flags
	cfg.DataDir, cfg.Cells = f.DataDir, d.Cells
	cfg.QueueDepth, cfg.CacheEntries, cfg.MaxJobs, cfg.Parallelism = f.Queue, f.CacheEntries, f.MaxJobs, f.Parallelism
	// Flag semantics (0 = off) map to the config's (negative = off).
	cfg.TraceBuffer = f.TraceBuffer
	if cfg.TraceBuffer == 0 {
		cfg.TraceBuffer = -1
	}
	cfg.TraceService = d.Name
	cfg.Registry, cfg.Sampler, cfg.Logger = d.Registry, d.sampler, d.Log
	mgr, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	return mgr, nil
}

// Hooks are a role's additions to Serve.
type Hooks struct {
	// Stats returns the role's own attributes, appended to the shared
	// INFO stats line.
	Stats func() []slog.Attr
	// Serving runs once the server is answering requests. The function
	// it returns runs first on the way out.
	Serving func(ctx context.Context) (stop func())
}

// Serve answers h on the bound listener — behind the request log and the
// MaxBodyBytes cap — and logs the INFO stats line every -stats-interval
// until ctx ends. Then it shuts down in order: the role's stop hook, stop
// accepting connections, let in-flight jobs drain within -drain-timeout,
// close the manager; jobs a failed drain cuts short are re-adopted on
// restart. Call NewManager first.
func (d *Daemon) Serve(ctx context.Context, h http.Handler, hooks Hooks) error {
	srv := &http.Server{
		Handler:           http.MaxBytesHandler(obs.LogRequests(h, d.Log, d.Registry), MaxBodyBytes),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(d.ln) }()
	d.Log.Info(d.Name+" listening", "addr", d.ln.Addr().String(), "data_dir", d.flags.DataDir)
	stopSampler := d.sampler.Start()
	defer stopSampler()
	var tick <-chan time.Time
	if d.flags.StatsInterval > 0 {
		t := time.NewTicker(d.flags.StatsInterval)
		defer t.Stop()
		tick = t.C
	}
	stop := func() {}
	if hooks.Serving != nil {
		stop = hooks.Serving(ctx)
	}

	for ctx.Err() == nil {
		select {
		case err := <-errCh:
			stop()
			return err
		case <-tick:
			d.Log.LogAttrs(ctx, slog.LevelInfo, "stats", d.stats(hooks)...)
		case <-ctx.Done():
		}
	}
	d.Log.Info(d.Name+" shutting down", "drain_timeout", d.flags.DrainTimeout)
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if !d.mgr.Drain(d.flags.DrainTimeout) {
		d.Log.Warn("drain timeout: cutting in-flight jobs short (they will be re-adopted on restart)")
	}
	d.mgr.Close()
	return nil
}

// Close releases what Bind and NewManager acquired. It is safe after
// Serve, which has already closed the manager and the listener.
func (d *Daemon) Close() {
	if d.mgr != nil {
		d.mgr.Close()
	}
	if d.pprof != nil {
		d.pprof.Close()
	}
	d.ln.Close()
}

// stats is the INFO stats line: job counts, queue depth and result
// cache read from the manager's /v1/status snapshot, stage latencies,
// then the role's attributes.
func (d *Daemon) stats(hooks Hooks) []slog.Attr {
	st := d.mgr.Status()
	attrs := []slog.Attr{
		slog.Int("queued", st.Jobs.Queued), slog.Int("running", st.Jobs.Running),
		slog.Int("done", st.Jobs.Done), slog.Int("failed", st.Jobs.Failed),
		slog.Int("canceled", st.Jobs.Canceled), slog.Int("queue_depth", st.Queue.Depth),
		slog.Uint64("cache_hits", st.ResultCache.Hits), slog.Uint64("cache_misses", st.ResultCache.Misses),
		slog.Int("cache_entries", st.ResultCache.Entries),
	}
	attrs = append(attrs, Quantiles(d.Registry, "bd_stage_duration_seconds", "stage")...)
	if hooks.Stats != nil {
		attrs = append(attrs, hooks.Stats()...)
	}
	return attrs
}

// Quantiles summarizes the registry histogram family as the stats
// attributes <prefix>_p50_s, _p95_s and _p99_s; none before its first
// observation.
func Quantiles(reg *obs.Registry, family, prefix string) []slog.Attr {
	h, ok := reg.ReadHistogram(family)
	if !ok || h.Count == 0 {
		return nil
	}
	q := h.Quantiles(0.50, 0.95, 0.99)
	return []slog.Attr{
		slog.Float64(prefix+"_p50_s", q[0]), slog.Float64(prefix+"_p95_s", q[1]), slog.Float64(prefix+"_p99_s", q[2]),
	}
}
