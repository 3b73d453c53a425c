// Package shard implements horizontal sharding of the characterization
// grid across bdservd workers: a deterministic planner that tiles a
// job's workload×node axes into many small cell-range work units, and a
// coordinator-side executor that runs them through service.RunUnits —
// the probe → run → store core a standalone daemon runs too — with the
// fleet as its Runner. The executor's work-stealing dispatch loop lets
// each worker pull its next unit the moment the previous one completes,
// re-queues units from failed or stalled workers, and keeps dead workers
// out of the rotation with per-worker circuit breakers (fed by unit
// outcomes and a background /healthz prober). The unit observation
// matrices are re-assembled in canonical order, so the merged result is
// byte-identical to a single-daemon run no matter which worker ran which
// unit. cmd/bdcoord plugs the executor into a stock service.Manager,
// inheriting its queue, cache, job records and HTTP API.
// internal/shard/chaostest is the fault-injection harness that proves
// the determinism claim under latency, disconnect, crash-and-restart and
// wrong-shape faults.
package shard

import (
	"fmt"

	"repro/internal/service"
)

// Shard is one dispatchable work unit of a job's measurement grid (see
// service.Unit). The dispatch loop plans several units per worker, so a
// unit is deliberately much smaller than a worker's fair share.
type Shard = service.Unit

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
