package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/bigdata/custom"
	"repro/internal/cluster/hier"
	"repro/internal/obs"
)

// JobRequest is the HTTP submission body: a friendly, partial view of a
// JobSpec. Unset fields take the paper defaults; Spec (when present)
// overrides everything else for full low-level control.
type JobRequest struct {
	// Mode selects the job kind: "analyze" (default) or "observations"
	// (characterize-only; result is the raw observation matrix).
	Mode string `json:"mode,omitempty"`

	// Workloads selects suite members by name; empty = every workload the
	// request defines (built-ins + custom).
	Workloads []string `json:"workloads,omitempty"`

	// CustomWorkloads extends the suite with declarative scenario
	// definitions (see internal/bigdata/custom); Presets names embedded
	// preset families (e.g. "StreamIngest") whose definitions are
	// materialized into the spec before hashing, so the job ID always
	// reflects the definition content, never just its name.
	CustomWorkloads []custom.Definition `json:"custom_workloads,omitempty"`
	Presets         []string            `json:"presets,omitempty"`

	Seed         *uint64  `json:"seed,omitempty"`         // suite + cluster seed
	Scale        *float64 `json:"scale,omitempty"`        // dataset scale divisor
	Nodes        *int     `json:"nodes,omitempty"`        // slave nodes
	Instructions *int     `json:"instructions,omitempty"` // per core per node
	Slices       *int     `json:"slices,omitempty"`       // PMC scheduling slices
	Runs         *int     `json:"runs,omitempty"`         // measurement repetitions
	Jitter       *float64 `json:"jitter,omitempty"`       // execution variation σ
	Multiplex    *bool    `json:"multiplex,omitempty"`    // PMC time multiplexing

	KMin     *int    `json:"kmin,omitempty"`     // BIC scan lower bound
	KMax     *int    `json:"kmax,omitempty"`     // BIC scan upper bound
	Restarts *int    `json:"restarts,omitempty"` // K-means restarts
	Linkage  *string `json:"linkage,omitempty"`  // single | complete | average | ward

	// Spec, if set, is used verbatim (after normalization) and the
	// convenience fields above must be absent.
	Spec *JobSpec `json:"spec,omitempty"`
}

// ToSpec materializes the request into a full JobSpec.
func (r *JobRequest) ToSpec() (JobSpec, error) {
	if r.Spec != nil {
		if r.Mode != "" || len(r.Workloads) != 0 || len(r.CustomWorkloads) != 0 ||
			len(r.Presets) != 0 || r.Seed != nil || r.Scale != nil || r.Nodes != nil ||
			r.Instructions != nil || r.Slices != nil || r.Runs != nil || r.Jitter != nil ||
			r.Multiplex != nil || r.KMin != nil || r.KMax != nil || r.Restarts != nil ||
			r.Linkage != nil {
			return JobSpec{}, fmt.Errorf("service: spec and convenience fields are mutually exclusive")
		}
		return *r.Spec, nil
	}
	s := DefaultSpec()
	s.Mode = r.Mode
	s.Workloads = r.Workloads
	s.CustomWorkloads = r.CustomWorkloads
	if len(r.Presets) > 0 {
		defs, err := custom.PresetsByName(r.Presets)
		if err != nil {
			return JobSpec{}, err
		}
		s.CustomWorkloads = append(append([]custom.Definition(nil), s.CustomWorkloads...), defs...)
	}
	if r.Seed != nil {
		s.Suite.Seed = *r.Seed
		s.Cluster.Seed = *r.Seed
	}
	if r.Scale != nil {
		s.Suite.Scale = *r.Scale
	}
	if r.Nodes != nil {
		s.Cluster.SlaveNodes = *r.Nodes
	}
	if r.Instructions != nil {
		s.Cluster.InstructionsPerCore = *r.Instructions
	}
	if r.Slices != nil {
		s.Cluster.Slices = *r.Slices
	}
	if r.Runs != nil {
		s.Cluster.Runs = *r.Runs
	}
	if r.Jitter != nil {
		s.Cluster.ExecutionJitter = *r.Jitter
	}
	if r.Multiplex != nil {
		s.Cluster.Monitor.Multiplex = *r.Multiplex
	}
	if r.KMin != nil {
		s.Analysis.KMin = *r.KMin
	}
	if r.KMax != nil {
		s.Analysis.KMax = *r.KMax
	}
	if r.Restarts != nil {
		s.Analysis.KMeans.Restarts = *r.Restarts
	}
	if r.Linkage != nil {
		switch strings.ToLower(*r.Linkage) {
		case "single":
			s.Analysis.Linkage = hier.Single
		case "complete":
			s.Analysis.Linkage = hier.Complete
		case "average":
			s.Analysis.Linkage = hier.Average
		case "ward":
			s.Analysis.Linkage = hier.Ward
		default:
			return JobSpec{}, fmt.Errorf("service: unknown linkage %q (single, complete, average, ward)", *r.Linkage)
		}
	}
	return s, nil
}

// NewHandler builds the bdservd HTTP API around a manager:
//
//	POST   /v1/jobs            submit (dedupes; replays cached results)
//	GET    /v1/jobs            list all jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result canonical result JSON
//	GET    /v1/jobs/{id}/events NDJSON progress stream (replay + live)
//	GET    /v1/jobs/{id}/trace  trace export (?format=chrome for trace_event)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/cache/stats     result-cache status (= /v1/status result_cache)
//	GET    /v1/status          full operational snapshot (see StatusSnapshot)
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", m.reg.Handler())
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, m.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// A failing job-record write degrades the daemon until a write
		// succeeds again: it refuses new submissions and a restart could
		// lose jobs. The 503 also takes a disk-failing shard worker out of
		// its coordinator's rotation — probes fail, the breaker opens.
		if ok, detail := m.records.health(); !ok {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "degraded", "job_records": detail,
			})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/cache/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, m.CacheStats())
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if !DecodeJSON(w, r, "request", &req) {
			return
		}
		spec, err := req.ToSpec()
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		// X-BD-Trace (when a coordinator set one) joins this job's spans
		// to the caller's trace; SubmitTraced validates before trusting.
		st, err := m.SubmitTraced(spec, r.Header.Get(obs.TraceHeader))
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrRecordWrite):
			WriteError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			WriteError(w, http.StatusBadRequest, err)
		case st.State.terminal():
			WriteJSON(w, http.StatusOK, st)
		default:
			WriteJSON(w, http.StatusAccepted, st)
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := m.Get(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		data, ok := m.Result(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no result for job %q", r.PathValue("id")))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !m.Cancel(r.PathValue("id")) {
			WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		st, _ := m.Get(r.PathValue("id"))
		WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		export, ok := m.Trace(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (unknown, evicted, or tracing disabled)", r.PathValue("id")))
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			data, err := obs.ChromeTrace(export)
			if err != nil {
				WriteError(w, http.StatusInternalServerError, err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(data)
			return
		}
		WriteJSON(w, http.StatusOK, export)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.job(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		idx := 0
		for {
			evs, more, done := j.EventsSince(idx)
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					return
				}
			}
			idx += len(evs)
			if flusher != nil {
				flusher.Flush()
			}
			if done {
				return
			}
			select {
			case <-more:
			case <-r.Context().Done():
				return
			}
		}
	})
	return mux
}

// WriteJSON writes v as the indented JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes err as a {"error": ...} JSON body of a code response.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// DecodeStrict decodes exactly one JSON value from r into v: unknown
// fields are an error, and so is anything but whitespace after the value
// (`{"nodes":2}{"nodes":3}` must not run a 2-node job). The daemons'
// request bodies and report's -request file go through it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			return errors.New("trailing data after the JSON value")
		}
		return fmt.Errorf("trailing data after the JSON value: %w", err)
	}
	return nil
}

// DecodeJSON decodes r's JSON body into v with DecodeStrict; what names
// the body in the error. On failure it writes the error response and
// returns false: 413 when the body ran past the daemon's size cap
// (http.MaxBytesHandler), 400 for anything else.
func DecodeJSON(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := DecodeStrict(r.Body, v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	WriteError(w, code, fmt.Errorf("decoding %s: %w", what, err))
	return false
}
