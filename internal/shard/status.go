package shard

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// WorkerFleetStatus is one row of bdcoord's fleet view: the
// coordinator's own record of the worker (lease, breaker, throughput —
// the embedded WorkerStatus) alongside the worker's self-reported
// /v1/status snapshot. The two sides can disagree — that disagreement is
// the signal (a worker whose breaker is open here but which reports
// itself healthy is partitioned from the coordinator, not down).
type WorkerFleetStatus struct {
	WorkerStatus
	// Status is the worker's own GET /v1/status snapshot; nil when the
	// fetch failed (see StatusError).
	Status *service.StatusSnapshot `json:"status,omitempty"`
	// StatusError explains a nil Status: the per-worker fetch error. One
	// unreachable worker never fails the fleet view — it is reported
	// exactly like this, and every other row is unaffected.
	StatusError string `json:"status_error,omitempty"`
}

// fleetStatusConcurrency bounds concurrent per-worker status fetches.
const fleetStatusConcurrency = 8

// FleetStatus fans GET /v1/status out to every current fleet member
// (bounded concurrency, perWorkerTimeout each) and returns one row per
// member in join order. The coordinator-side half of each row is what
// /v1/workers serves, built from the same membership snapshot the fan-out
// walks. Failures are isolated per worker: an unreachable or slow member
// yields a row with StatusError set and its coordinator-side WorkerStatus
// intact, never an error for the fleet.
func (e *Executor) FleetStatus(ctx context.Context, perWorkerTimeout time.Duration) []WorkerFleetStatus {
	members := e.reg.snapshot()
	rows := e.workerRows(members)
	out := make([]WorkerFleetStatus, len(members))
	sem := make(chan struct{}, fleetStatusConcurrency)
	var wg sync.WaitGroup
	for i, w := range members {
		out[i].WorkerStatus = rows[i]
		wg.Add(1)
		go func(i int, w *workerState) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			wctx, cancel := context.WithTimeout(ctx, perWorkerTimeout)
			defer cancel()
			st, err := w.client.Status(wctx)
			if err != nil {
				out[i].StatusError = err.Error()
				return
			}
			out[i].Status = &st
		}(i, w)
	}
	wg.Wait()
	return out
}

// FleetSeriesDefs is the coordinator-side addition to the status
// sampler: fleet size as a level and fleet-wide unit throughput as a
// rate, both from the executor's registry families.
func FleetSeriesDefs() []obs.SeriesDef {
	return []obs.SeriesDef{
		{Name: "fleet_workers", Kind: obs.KindLevel, Family: "bd_fleet_workers"},
		{Name: "units_done_per_sec", Kind: obs.KindRate, Family: "bd_worker_units_done_total"},
	}
}
