package obs

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// ParseLevel maps the -log-level flag values to slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error)", s)
}

// NewLogger builds the daemon logger: level is "debug"|"info"|"warn"|
// "error", format is "text"|"json". Both daemons expose these directly
// as -log-level and -log-format.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (text, json)", format)
}

// IsJobID reports whether s has the exact shape of a job ID (32
// lowercase hex digits) — used to collapse URL paths to bounded metric
// label values and to tag request log lines with the job they touch.
func IsJobID(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		b := s[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

// knownRoutes bounds the path label cardinality of the HTTP metrics:
// anything else (scans, typos, 404 probes) collapses into "other"
// instead of minting a new series per request.
var knownRoutes = map[string]bool{
	"/healthz":             true,
	"/metrics":             true,
	"/v1/jobs":             true,
	"/v1/jobs/{id}":        true,
	"/v1/jobs/{id}/result": true,
	"/v1/jobs/{id}/events": true,
	"/v1/jobs/{id}/trace":  true,
	"/v1/cache/stats":      true,
	"/v1/workers":          true,
	"/v1/status":           true,
}

// NormalizePath collapses job-ID path segments to "{id}" and unknown
// routes to "other", returning the normalized path plus the job ID (if
// the path named one).
func NormalizePath(p string) (route, jobID string) {
	segs := strings.Split(strings.TrimSuffix(p, "/"), "/")
	for i, s := range segs {
		if IsJobID(s) {
			jobID = s
			segs[i] = "{id}"
		}
	}
	route = strings.Join(segs, "/")
	if route == "" {
		route = "/"
	}
	if !knownRoutes[route] {
		route = "other"
	}
	return route, jobID
}

// statusWriter captures the response status and byte count, passing
// Flush through so wrapped NDJSON event streams keep streaming live.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// LogRequests wraps next with the daemons' request observability: one
// structured log line per request (method, route, status, duration,
// bytes, client, and the job ID when the path names one) plus the
// bd_http_requests_total / bd_http_request_duration_seconds metrics.
// /healthz and /metrics lines log at DEBUG so probes and scrapes don't
// drown the INFO stream.
func LogRequests(next http.Handler, logger *slog.Logger, reg *Registry) http.Handler {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	requests := reg.CounterVec("bd_http_requests_total",
		"HTTP requests served, by method, normalized route and status code.",
		"method", "path", "code")
	duration := reg.HistogramVec("bd_http_request_duration_seconds",
		"HTTP request latency in seconds, by method and normalized route.",
		DefBuckets, "method", "path")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		route, jobID := NormalizePath(r.URL.Path)
		requests.With(r.Method, route, fmt.Sprintf("%d", sw.status)).Inc()
		duration.With(r.Method, route).Observe(elapsed.Seconds())
		level := slog.LevelInfo
		if route == "/healthz" || route == "/metrics" {
			level = slog.LevelDebug
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", elapsed),
			slog.Int64("bytes", sw.bytes),
			slog.String("client", r.RemoteAddr),
		}
		if jobID != "" {
			attrs = append(attrs, slog.String("job", jobID))
		}
		logger.LogAttrs(r.Context(), level, "http request", attrs...)
	})
}
