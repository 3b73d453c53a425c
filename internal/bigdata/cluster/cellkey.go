package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/bigdata/workloads"
	"repro/internal/perf"
	"repro/internal/sim/machine"
	"repro/internal/trace"
)

// cellKeyVersion is baked into every cell key. Bump it whenever the
// measurement semantics change in a way the inputs below cannot express
// (a simulator fix, a metric-schema change), so stale caches turn into
// misses instead of serving pre-change cells.
const cellKeyVersion = 1

// cellKeySpec is the canonical content of one cell key: everything the
// per-cell seed and simulation consume, and nothing else. A column — one
// workload on one absolute node, all runs — is the cache unit, matching
// the shard planner's workload×node granularity, so the run index is
// folded in through Runs rather than keyed separately.
//
// The field set is an exhaustive audit of runNode's data flow: the
// workload's resolved trace profile (names alone are not identity — the
// open scenario registry lets two suites bind different definitions to
// one name), the absolute node index (NodeOffset+node, which is what the
// seed uses, so shards of the same grid share keys), and every Config
// field the simulation reads. Execution-only knobs (Parallelism,
// SlaveNodes, NodeOffset as a field) are deliberately absent: they never
// affect a cell's bytes. All types are flat structs of scalars, so
// encoding/json is deterministic and round-trips float64 exactly.
type cellKeySpec struct {
	V            int
	Workload     string
	Profile      trace.Profile
	AbsNode      int
	Seed         uint64
	Jitter       float64
	Instructions int
	Slices       int
	Runs         int
	Machine      machine.Config
	Monitor      perf.MonitorConfig
}

// CellKey returns the content address of one workload×node column of the
// characterization grid under cfg: the full SHA-256 (64 hex digits) of
// the canonical cell-key spec. Equal keys guarantee byte-identical
// per-run metric vectors; node is the campaign-local index, and the key
// is derived from the absolute index cfg.NodeOffset+node, so a sharded
// sub-campaign and the full grid address the same columns identically.
func CellKey(w workloads.Workload, cfg Config, node int) (string, error) {
	data, err := json.Marshal(cellKeySpec{
		V:            cellKeyVersion,
		Workload:     w.Name,
		Profile:      w.Profile,
		AbsNode:      cfg.NodeOffset + node,
		Seed:         cfg.Seed,
		Jitter:       cfg.ExecutionJitter,
		Instructions: cfg.InstructionsPerCore,
		Slices:       cfg.Slices,
		Runs:         cfg.Runs,
		Machine:      cfg.Machine,
		Monitor:      cfg.Monitor,
	})
	if err != nil {
		return "", fmt.Errorf("cluster: encoding cell key: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// CellCache is the column store ProbeColumns and StoreColumns talk to: a
// content-addressed store of workload×node columns (the per-run metric
// vectors of one workload on one absolute node). Implementations must
// uphold the determinism contract — a column served under a key must be
// exactly what recomputing it would produce — and be safe for concurrent
// use. See internal/cellcache for the on-disk implementation.
type CellCache interface {
	// GetCell returns the column under key, or ok=false. workload is the
	// resolved workload name of the column — attribution only (per-
	// workload hit/miss accounting); it must never affect what is served.
	// runs and metrics give the expected shape; implementations must
	// never return a column that does not match it.
	GetCell(workload, key string, runs, metrics int) (vecs [][]float64, ok bool)
	// PutCell stores a computed column. Best-effort: failures may be
	// swallowed (the grid already holds the computed cells).
	PutCell(workload, key string, vecs [][]float64)
}

// ProbeColumns looks every workload×node column of the grid under cfg up
// in cc. It returns the grid's cells indexed [workload][run][node] with
// each hit column filled and every other cell nil, the keys of the
// missed columns (keys[wi][node], "" where the column hit or its key
// could not be derived), and the number of hit columns. cfg.NodeOffset
// makes the keys absolute, so a unit of a sharded job probes the same
// entries as the full grid. A nil cc probes nothing: every cell is nil
// and keys is nil.
func ProbeColumns(cc CellCache, suite []workloads.Workload, cfg Config) (cells [][][][]float64, keys [][]string, hits int) {
	cells = newCells(len(suite), cfg)
	if cc == nil {
		return cells, nil, 0
	}
	nmetrics := len(perf.MetricNames())
	keys = make([][]string, len(suite))
	for wi, w := range suite {
		keys[wi] = make([]string, cfg.SlaveNodes)
		for node := 0; node < cfg.SlaveNodes; node++ {
			key, err := CellKey(w, cfg, node)
			if err != nil {
				continue // computed, never stored: the cache only skips work
			}
			vecs, ok := cc.GetCell(w.Name, key, cfg.Runs, nmetrics)
			if !ok {
				keys[wi][node] = key
				continue
			}
			hits++
			for run := range vecs {
				cells[wi][run][node] = vecs[run]
			}
		}
	}
	return cells, keys, hits
}

// StoreColumns writes the columns ProbeColumns missed back to cc, each
// under its key, taking the vectors from cells ([workload][run][node],
// now complete). Call it only once the grid has validated: a partially
// failed campaign must not seed the cache. Columns that hit are already
// stored and are not rewritten.
func StoreColumns(cc CellCache, suite []workloads.Workload, keys [][]string, cells [][][][]float64) {
	for wi, row := range keys {
		for node, key := range row {
			if key == "" {
				continue
			}
			vecs := make([][]float64, len(cells[wi]))
			for run := range vecs {
				vecs[run] = cells[wi][run][node]
			}
			cc.PutCell(suite[wi].Name, key, vecs)
		}
	}
}
