// Package shard implements horizontal sharding of the characterization
// grid across bdservd workers: a deterministic planner that tiles a
// job's workload×node axes into many small cell-range work units, and a
// coordinator-side executor that feeds the units through a work-stealing
// dispatch loop — each worker pulls its next unit the moment the
// previous one completes, units from failed or stalled workers are
// re-queued, and per-worker circuit breakers (fed by unit outcomes and a
// background /healthz prober) keep dead workers out of the rotation.
// Per-unit progress is multiplexed into one merged event stream, and the
// unit observation matrices are re-assembled in canonical order, so the
// merged result is byte-identical to a single-daemon run no matter which
// worker ran which unit. cmd/bdcoord plugs the executor into a stock
// service.Manager, inheriting its queue, cache, job records and HTTP API.
// internal/shard/chaostest is the fault-injection harness that proves
// the determinism claim under latency, disconnect, crash-and-restart and
// wrong-shape faults.
package shard

import (
	"fmt"

	"repro/internal/bigdata/custom"
	"repro/internal/service"
)

// Shard is one dispatchable work unit of a job's measurement grid: a
// contiguous workload range (in canonical suite order) crossed with a
// contiguous node range. The dispatch loop plans several units per
// worker, so a unit is deliberately much smaller than a worker's fair
// share. The run axis is never split — runs of one cell column are cheap
// relative to workloads and nodes, and keeping them together keeps
// sub-spec configs simple.
type Shard struct {
	Index int
	// Workloads is the shard's workload selection, in canonical order.
	Workloads []string
	// WorkloadOffset is the first workload's index in the full job's
	// canonical workload order.
	WorkloadOffset int
	// NodeOffset / Nodes delimit the shard's node range relative to the
	// full job's own node axis.
	NodeOffset, Nodes int
}

// Spec materializes the shard as a characterize-only sub-spec of the
// full (normalized) job spec: same suite, seed and monitor config, the
// shard's workload subset, and the shard's node window expressed through
// cluster.Config.NodeOffset — whose per-cell seeds depend on absolute
// node indexes, making the sub-grid bit-identical to the corresponding
// cells of the full grid.
//
// Custom workload definitions are pruned to those the shard's workload
// range actually references: per-cell results are functions of workload
// names, never of what else the suite defines, so dropping unused
// definitions cannot change a byte — but it normalizes a built-in-only
// unit of a custom-carrying job to the *same worker job ID* as the
// corresponding unit of a plain job, so worker-side caches are shared
// across them.
func (s Shard) Spec(full service.JobSpec) service.JobSpec {
	sub := full
	sub.Mode = service.ModeObservations
	sub.Workloads = append([]string(nil), s.Workloads...)
	sub.CustomWorkloads = pruneDefs(full.CustomWorkloads, s.Workloads)
	sub.Cluster.NodeOffset = full.Cluster.NodeOffset + s.NodeOffset
	sub.Cluster.SlaveNodes = s.Nodes
	return sub
}

// pruneDefs keeps the definitions (in order) whose generated workload
// names intersect the shard's workload selection.
func pruneDefs(defs []custom.Definition, selected []string) []custom.Definition {
	if len(defs) == 0 {
		return nil
	}
	want := make(map[string]bool, len(selected))
	for _, n := range selected {
		want[n] = true
	}
	var out []custom.Definition
	for _, d := range defs {
		for _, n := range d.WorkloadNames() {
			if want[n] {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// Plan deterministically tiles a job's grid into at most `parts` units.
// Workloads are divided into contiguous near-equal chunks; when there
// are fewer workloads than parts the node axis is split as well, so the
// plan yields `parts` units whenever the grid has at least that many
// workload×node columns (and one unit per column otherwise). The
// coordinator plans UnitsPerWorker × workers parts, then dispatches them
// dynamically — the plan itself carries no worker assignment.
func Plan(spec service.JobSpec, parts int) ([]Shard, error) {
	workers := parts
	if workers < 1 {
		return nil, fmt.Errorf("shard: need ≥1 plan part, got %d", workers)
	}
	names, err := spec.WorkloadNames()
	if err != nil {
		return nil, err
	}
	nodes := spec.Cluster.SlaveNodes
	if nodes < 1 {
		return nil, fmt.Errorf("shard: spec has %d slave nodes", nodes)
	}

	w := len(names)
	var shards []Shard
	if workers <= w {
		// Workload-axis split only: contiguous chunks, sizes differing by
		// at most one.
		for i, lo := 0, 0; i < workers; i++ {
			hi := lo + w/workers
			if i < w%workers {
				hi++
			}
			shards = append(shards, Shard{
				Workloads:      names[lo:hi],
				WorkloadOffset: lo,
				NodeOffset:     0,
				Nodes:          nodes,
			})
			lo = hi
		}
	} else {
		// Fewer workloads than workers: one chunk per workload, with each
		// workload's node axis split among its share of the workers.
		per := make([]int, w) // node-splits per workload
		for i := 0; i < w; i++ {
			per[i] = workers / w
			if i < workers%w {
				per[i]++
			}
			if per[i] > nodes {
				per[i] = nodes
			}
		}
		for i := 0; i < w; i++ {
			for p, lo := 0, 0; p < per[i]; p++ {
				hi := lo + nodes/per[i]
				if p < nodes%per[i] {
					hi++
				}
				shards = append(shards, Shard{
					Workloads:      names[i : i+1],
					WorkloadOffset: i,
					NodeOffset:     lo,
					Nodes:          hi - lo,
				})
				lo = hi
			}
		}
	}
	for i := range shards {
		shards[i].Index = i
	}
	return shards, nil
}
