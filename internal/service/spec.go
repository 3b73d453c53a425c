// Package service turns the one-shot characterization pipeline into a
// long-running characterization-as-a-service subsystem: a job manager
// with a bounded executor pool, deterministic content-addressed job IDs,
// an LRU + on-disk result cache, and per-job streamed progress events.
// cmd/bdservd exposes it over HTTP.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sim/machine"
)

// JobSpec is the complete, self-contained description of one
// characterization + analysis job. Two specs that normalize to the same
// value are the same job: the job ID (and therefore the result-cache key)
// is a hash of the normalized spec, so identical submissions deduplicate
// and replay the cached result byte-for-byte.
//
// Workload order is semantic — it fixes dataset row order, which the
// downstream clustering depends on — so specs listing the same workloads
// in different orders are distinct jobs.
// Job modes. The canonical (normalized) analyze mode is the empty string,
// so pre-existing analyze-job IDs and cached results stay valid.
const (
	// ModeAnalyze runs the full pipeline; the result is an AnalysisJSON.
	ModeAnalyze = ""
	// ModeObservations runs characterization only and returns the raw
	// per-cell observation matrix (ObservationsJSON) — the worker half of
	// a sharded run. The Analysis config is ignored (and zeroed during
	// normalization, so coordinators sharding jobs with different
	// analysis settings share worker-side cache entries).
	ModeObservations = "observations"
)

type JobSpec struct {
	// Mode selects what the job computes: "" / "analyze" for the full
	// characterize+analyze pipeline, "observations" (or "characterize")
	// for the characterize-only observation matrix.
	Mode string `json:"mode,omitempty"`
	// Workloads selects suite members by paper name (e.g. "H-Sort").
	// Empty means every workload the spec defines: the 32 built-ins plus
	// the workloads of CustomWorkloads, in that order.
	Workloads []string `json:"workloads,omitempty"`
	// CustomWorkloads extends the suite with declarative scenario
	// definitions (internal/bigdata/custom), appended after the built-ins
	// in definition order. Definitions are normalized into the canonical
	// spec and therefore participate in the content-addressed job ID:
	// identical custom jobs dedupe and cache like built-in ones, and the
	// field is omitted when empty so pre-existing job IDs are unchanged.
	CustomWorkloads []custom.Definition `json:"custom_workloads,omitempty"`
	// Suite configures workload synthesis (seed, dataset scale).
	Suite workloads.Config `json:"suite"`
	// Cluster configures the simulated five-node measurement cluster.
	Cluster cluster.Config `json:"cluster"`
	// Analysis configures the §V–§VI statistical pipeline.
	Analysis core.AnalysisConfig `json:"analysis"`
}

// DefaultSpec returns the paper-shaped job: all 32 workloads at the
// standard suite, cluster and analysis settings.
func DefaultSpec() JobSpec {
	return JobSpec{
		Suite:    workloads.DefaultConfig(),
		Cluster:  cluster.DefaultConfig(),
		Analysis: core.DefaultAnalysis(),
	}
}

// Normalized fills defaults, strips execution-only knobs and validates,
// returning the canonical form the job ID is computed from.
//
// Parallelism settings are zeroed: the pipeline guarantees bit-identical
// results at any parallelism, so they are an execution detail of the
// server, never part of the job identity.
func (s JobSpec) Normalized() (JobSpec, error) {
	n := s

	switch strings.ToLower(strings.TrimSpace(n.Mode)) {
	case "", "analyze":
		n.Mode = ModeAnalyze
	case ModeObservations, "characterize":
		n.Mode = ModeObservations
	default:
		return n, fmt.Errorf("service: unknown job mode %q (analyze, observations)", n.Mode)
	}

	if n.Suite == (workloads.Config{}) {
		n.Suite = workloads.DefaultConfig()
	}
	if n.Suite.Scale <= 0 {
		return n, fmt.Errorf("service: non-positive suite scale %v", n.Suite.Scale)
	}

	d := cluster.DefaultConfig()
	if n.Cluster == (cluster.Config{}) {
		n.Cluster = d
	}
	if n.Cluster.Machine == (machine.Config{}) {
		n.Cluster.Machine = d.Machine
	}
	if n.Cluster.SlaveNodes == 0 {
		n.Cluster.SlaveNodes = d.SlaveNodes
	}
	if n.Cluster.InstructionsPerCore == 0 {
		n.Cluster.InstructionsPerCore = d.InstructionsPerCore
	}
	if n.Cluster.Slices == 0 {
		n.Cluster.Slices = d.Slices
	}
	if n.Cluster.Runs == 0 {
		n.Cluster.Runs = 1
	}
	if n.Cluster.Monitor == (perf.MonitorConfig{}) {
		n.Cluster.Monitor = d.Monitor
	} else if n.Cluster.Monitor.Counters == 0 {
		// Partial monitor config: default only the counter width, keep
		// the caller's Multiplex/RampUpFraction — wholesale replacement
		// would silently compute (and cache-key) the wrong measurement.
		n.Cluster.Monitor.Counters = d.Monitor.Counters
	}
	n.Cluster.Parallelism = 0

	if n.Mode == ModeObservations {
		// Characterize-only jobs never run the analysis stage: zero the
		// config so shards of analyze jobs that differ only in analysis
		// settings normalize to the same worker job.
		n.Analysis = core.AnalysisConfig{}
	} else {
		if n.Analysis == (core.AnalysisConfig{}) {
			n.Analysis = core.DefaultAnalysis()
		}
		if n.Analysis.KMin == 0 && n.Analysis.KMax == 0 {
			n.Analysis.KMin, n.Analysis.KMax = 2, 12
		}
		if n.Analysis.VarianceFrac == 0 {
			n.Analysis.VarianceFrac = 0.9
		}
		if n.Analysis.KMeans.Restarts == 0 {
			n.Analysis.KMeans.Restarts = core.DefaultAnalysis().KMeans.Restarts
		}
		n.Analysis.Parallelism = 0
		n.Analysis.KMeans.Parallelism = 0
	}

	if err := n.Cluster.Validate(); err != nil {
		return n, err
	}
	if n.Mode == ModeAnalyze && (n.Analysis.KMin < 1 || n.Analysis.KMax < n.Analysis.KMin) {
		return n, fmt.Errorf("service: invalid K range [%d,%d]", n.Analysis.KMin, n.Analysis.KMax)
	}

	if len(n.CustomWorkloads) == 0 {
		n.CustomWorkloads = nil
	} else {
		defs, err := custom.NormalizeAll(n.CustomWorkloads)
		if err != nil {
			return n, err
		}
		n.CustomWorkloads = defs
		// The definitions' synthesized profiles are validated by building
		// them, which derives no data and synthesizes no built-in.
		if _, err := custom.Build(defs, n.Suite); err != nil {
			return n, err
		}
	}

	if len(n.Workloads) == 0 {
		n.Workloads = nil
	} else {
		// The selection (empty/duplicate/unknown names) is validated by name
		// alone, so Normalized — run on every Submit/ID and every bdcoord
		// unit sub-spec — synthesizes nothing.
		names, err := n.WorkloadNames()
		if err != nil {
			return n, err
		}
		n.Workloads = names
	}
	return n, nil
}

// WorkloadNames returns the canonical, validated names of the workloads
// the spec describes, synthesizing none of them: the 32 built-ins plus
// any custom definitions' workloads (appended in definition order). An
// empty selection means all of them; otherwise the named workloads are
// picked in the given order by the shared selection check (unknown names
// error with the list of valid ones).
func (s JobSpec) WorkloadNames() ([]string, error) {
	names := workloads.BuiltinNames()
	if len(s.CustomWorkloads) > 0 {
		defs, err := custom.NormalizeAll(s.CustomWorkloads)
		if err != nil {
			return nil, err
		}
		for _, d := range defs {
			names = append(names, d.WorkloadNames()...)
		}
	}
	if len(s.Workloads) == 0 {
		return names, nil
	}
	return workloads.CheckSelection(names, s.Workloads)
}

// ResolveSuite synthesizes the workloads WorkloadNames lists, in that
// order. A selection synthesizes only its own entries: each built-in alone
// through workloads.Builtin, custom ones from their definitions. Per-cell
// seeds and per-algorithm data are functions of workload names, so
// neither the selection nor the custom extension perturbs a built-in's
// bits.
func (s JobSpec) ResolveSuite() ([]workloads.Workload, error) {
	var extra []workloads.Workload
	if len(s.CustomWorkloads) > 0 {
		var err error
		if extra, err = custom.Build(s.CustomWorkloads, s.Suite); err != nil {
			return nil, err
		}
	}
	if len(s.Workloads) == 0 {
		// Everything: Suite derives each algorithm's data once for both
		// of its engines.
		suite, err := workloads.Suite(s.Suite)
		if err != nil {
			return nil, err
		}
		return append(suite, extra...), nil
	}
	names, err := s.WorkloadNames()
	if err != nil {
		return nil, err
	}
	suite := make([]workloads.Workload, len(names))
	for i, name := range names {
		w, err := workloads.ByName(extra, name)
		if err != nil {
			// Not a custom workload, so WorkloadNames found it among the
			// built-ins.
			if w, err = workloads.Builtin(s.Suite, name); err != nil {
				return nil, err
			}
		}
		suite[i] = w
	}
	return suite, nil
}

// ID returns the deterministic, content-addressed job identifier: the
// hex-encoded truncated SHA-256 of the normalized spec's canonical JSON.
func (s JobSpec) ID() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", err
	}
	return n.id()
}

// id hashes an already-normalized spec. encoding/json emits struct fields
// in declaration order with deterministic number formatting, so equal
// normalized specs always produce identical bytes.
func (n JobSpec) id() (string, error) {
	data, err := json.Marshal(n)
	if err != nil {
		return "", fmt.Errorf("service: canonicalizing spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}
