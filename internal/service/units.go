package service

import (
	"context"
	"slices"
	"strconv"
	"sync"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/custom"
	"repro/internal/bigdata/workloads"
	"repro/internal/cellcache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
)

// Unit is one work unit of a job's measurement grid: a contiguous
// workload range (in canonical suite order) crossed with a contiguous
// node range. A standalone daemon runs a job as one unit covering the
// whole grid; a shard coordinator plans several per worker (shard.Plan).
// The run axis is never split — runs of one cell column are cheap
// relative to workloads and nodes, and keeping them together keeps
// sub-spec configs simple.
type Unit struct {
	Index int
	// Workloads is the unit's workload selection, in canonical order.
	Workloads []string
	// WorkloadOffset is the first workload's index in the full job's
	// canonical workload order.
	WorkloadOffset int
	// NodeOffset / Nodes delimit the unit's node range relative to the
	// full job's own node axis.
	NodeOffset, Nodes int
}

// Spec materializes the unit as a characterize-only sub-spec of the full
// (normalized) job spec: same suite, seed and monitor config, the unit's
// workload subset, and the unit's node window expressed through
// cluster.Config.NodeOffset — whose per-cell seeds depend on absolute
// node indexes, making the sub-grid bit-identical to the corresponding
// cells of the full grid.
//
// Custom workload definitions are pruned to those the unit's workload
// range actually references: per-cell results are functions of workload
// names, never of what else the suite defines, so dropping unused
// definitions cannot change a byte — but it normalizes a built-in-only
// unit of a custom-carrying job to the *same worker job ID* as the
// corresponding unit of a plain job, so worker-side caches are shared
// across them.
func (u Unit) Spec(full JobSpec) JobSpec {
	sub := full
	sub.Mode = ModeObservations
	sub.Workloads = append([]string(nil), u.Workloads...)
	sub.CustomWorkloads = pruneDefs(full.CustomWorkloads, u.Workloads)
	sub.Cluster.NodeOffset = full.Cluster.NodeOffset + u.NodeOffset
	sub.Cluster.SlaveNodes = u.Nodes
	return sub
}

// pruneDefs keeps the definitions (in order) whose generated workload
// names intersect the unit's workload selection.
func pruneDefs(defs []custom.Definition, selected []string) []custom.Definition {
	var out []custom.Definition
	for _, d := range defs {
		if slices.ContainsFunc(d.WorkloadNames(), func(n string) bool { return slices.Contains(selected, n) }) {
			out = append(out, d)
		}
	}
	return out
}

// PendingUnit is a unit the cell-store probe did not fully cover, as
// RunUnits hands it to a Runner. Its Index is its position in the plan.
type PendingUnit struct {
	Unit
	// Spec is the unit's sub-spec (Unit.Spec of the job's spec).
	Spec JobSpec
	// Suite is the unit's slice of the job's resolved suite.
	Suite []workloads.Workload
	// Cells is the unit's probed grid, indexed [workload][run][node]:
	// cached columns filled, every other cell nil.
	Cells [][][][]float64
}

// A Runner computes the grids of a job's pending units. For unit i it
// reports the cells done so far through progress (monotone within one
// attempt) and hands the complete, validated grid to done the moment it
// is in; both may be called from any goroutine. It returns nil only once
// every unit is done. The in-process runner fills each unit's probed
// grid on this daemon's machines; a shard coordinator's runs units on
// remote workers, which probe their own stores.
type Runner func(ctx context.Context, units []PendingUnit, progress func(i, done int), done func(i int, cells [][][][]float64)) error

// RunUnits runs a job's units through one probe → run → store core:
//
//  1. It probes store for every unit's workload×node columns, each column
//     once, in a cellcache-probe span. A unit whose every column is
//     cached is assembled here and never reaches the runner.
//  2. It hands every other unit to run, with its probed columns.
//  3. It writes each unit's missed columns back the moment that unit's
//     grid is in. Every store is fsynced, so a finished unit survives a
//     crash: a re-adopted job's probe finds it, however it is re-planned.
//
// spec is the normalized job spec and suite its resolved suite. It
// returns one observation matrix per unit, in plan order. Progress counts
// cached cells toward the grid total; store may be nil. Cached and
// computed cells are byte-identical, so the result does not depend on
// what the store holds.
func RunUnits(ctx context.Context, spec JobSpec, suite []workloads.Workload, units []Unit, store *cellcache.Store, run Runner, progress core.Progress) ([]*core.ObservationMatrix, error) {
	if progress != nil {
		progress(core.StageCharacterize, 0, 0)
	}
	runs := spec.Cluster.Runs
	agg := &progressAgg{
		perUnit:  make([]int, len(units)),
		total:    len(suite) * runs * spec.Cluster.SlaveNodes,
		progress: progress,
	}
	var cc cluster.CellCache // stays a nil interface without a store
	var probeSpan *obs.SpanHandle
	if store != nil {
		cc, probeSpan = store, obs.TraceFromContext(ctx).StartSpan("cellcache-probe")
	}
	oms := make([]*core.ObservationMatrix, len(units))
	var pending []PendingUnit
	var missKeys [][][]string // pending unit → keys of its missed columns
	hits, misses, cachedUnits := 0, 0, 0
	for u, unit := range units {
		unit.Index = u
		p := PendingUnit{Unit: unit, Spec: unit.Spec(spec), Suite: suite[unit.WorkloadOffset : unit.WorkloadOffset+len(unit.Workloads)]}
		cells, keys, n := cluster.ProbeColumns(cc, p.Suite, p.Spec.Cluster)
		hits += n
		if ncols := len(unit.Workloads) * unit.Nodes; n < ncols {
			misses += ncols - n
			p.Cells = cells
			pending = append(pending, p)
			missKeys = append(missKeys, keys)
			continue
		}
		oms[u] = unitMatrix(p, cells)
		cachedUnits++
		agg.report(u, len(unit.Workloads)*runs*unit.Nodes)
	}
	probeSpan.SetAttr("hits", strconv.Itoa(hits))
	probeSpan.SetAttr("misses", strconv.Itoa(misses))
	probeSpan.SetAttr("cached_units", strconv.Itoa(cachedUnits))
	probeSpan.End()
	if len(pending) == 0 {
		return oms, nil
	}

	err := run(ctx, pending, func(i, done int) { agg.report(pending[i].Index, done) },
		func(i int, cells [][][][]float64) {
			p := pending[i]
			cluster.StoreColumns(cc, p.Suite, missKeys[i], cells)
			oms[p.Index] = unitMatrix(p, cells)
			agg.report(p.Index, len(p.Workloads)*runs*p.Nodes)
		})
	if err != nil {
		return nil, err
	}
	return oms, nil
}

// unitMatrix is a unit's observation matrix over its complete grid.
func unitMatrix(p PendingUnit, cells [][][][]float64) *core.ObservationMatrix {
	return &core.ObservationMatrix{
		Labels:     p.Workloads,
		Metrics:    perf.MetricNames(),
		Cells:      cells,
		NodeOffset: p.Spec.Cluster.NodeOffset,
	}
}

// progressAgg multiplexes per-unit cell counts into one monotone
// (done, total) pair over the full grid for the job's event stream.
type progressAgg struct {
	mu       sync.Mutex
	perUnit  []int
	total    int
	emitted  int
	progress core.Progress
}

// report records unit u at done cells (monotone per unit — a re-run unit
// re-counts from zero but never regresses the aggregate).
func (a *progressAgg) report(u, done int) {
	if a.progress == nil {
		return
	}
	a.mu.Lock()
	if done > a.perUnit[u] {
		a.perUnit[u] = done
	}
	sum := 0
	for _, d := range a.perUnit {
		sum += d
	}
	if sum <= a.emitted {
		a.mu.Unlock()
		return
	}
	a.emitted = sum
	a.mu.Unlock()
	a.progress(core.StageCharacterize, sum, a.total)
}

// runInProcess is the Runner of a daemon without an Execute hook: it
// fills each unit's probed grid on this process's machines, at
// Config.Parallelism.
func (m *Manager) runInProcess(ctx context.Context, units []PendingUnit, progress func(i, done int), done func(i int, cells [][][][]float64)) error {
	for i, u := range units {
		cfg := u.Spec.Cluster
		cfg.Parallelism = m.cfg.Parallelism
		cells, err := cluster.FillCellsCtx(ctx, u.Suite, cfg, u.Cells, func(d, _ int) { progress(i, d) })
		if err != nil {
			return err
		}
		done(i, cells)
	}
	return nil
}

// executeUnits is the pipeline of a daemon without an Execute hook: the
// job's whole grid as one unit through RunUnits and the in-process
// runner, then EncodeResult.
func (m *Manager) executeUnits(ctx context.Context, spec JobSpec, progress core.Progress) ([]byte, error) {
	suite, err := spec.ResolveSuite()
	if err != nil {
		return nil, err
	}
	whole := Unit{Workloads: make([]string, len(suite)), Nodes: spec.Cluster.SlaveNodes}
	for i, w := range suite {
		whole.Workloads[i] = w.Name
	}
	oms, err := RunUnits(ctx, spec, suite, []Unit{whole}, m.cfg.Cells, m.runInProcess, progress)
	if err != nil {
		return nil, err
	}
	return EncodeResult(ctx, spec, oms[0], m.cfg.Parallelism, progress)
}
