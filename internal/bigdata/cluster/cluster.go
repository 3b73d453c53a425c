// Package cluster reproduces the paper's experimental setup (§IV): a
// five-node cluster — one master plus four slaves, each a two-socket Xeon
// E5645 node — running each workload across the slaves while per-node PMCs
// collect microarchitectural events. Per the paper, "We collect the data
// for all four slave nodes and take the mean."
//
// The master node only coordinates (job tracker / driver); it executes no
// measured work, so it is represented by bookkeeping alone.
package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bigdata/workloads"
	"repro/internal/perf"
	"repro/internal/rng"
	"repro/internal/sim/machine"
	"repro/internal/trace"
)

// Progress receives (completed, total) grid-cell counts as a
// characterization campaign advances. It is invoked from worker
// goroutines, so implementations must be safe for concurrent use and
// should return quickly.
type Progress func(done, total int)

// Config controls a characterization campaign.
type Config struct {
	// Machine is the per-node hardware model (default: machine.Westmere).
	Machine machine.Config
	// SlaveNodes is the number of measured worker nodes (paper: 4).
	SlaveNodes int
	// NodeOffset is the absolute index of the first measured node.
	// Per-cell seeds are functions of the absolute node index, so a
	// campaign over nodes [NodeOffset, NodeOffset+SlaveNodes) measures
	// exactly the corresponding node columns of the full grid — the basis
	// for sharding the node axis across daemons. Zero for a whole-grid
	// run; omitted from JSON when zero so sharding does not perturb the
	// canonical encoding of unsharded configs.
	NodeOffset int `json:",omitempty"`
	// InstructionsPerCore is the per-core budget for each node run.
	InstructionsPerCore int
	// Slices is the number of PMC scheduling slices per run.
	Slices int
	// Monitor configures the PMC collection.
	Monitor perf.MonitorConfig
	// Runs repeats each workload and averages metric vectors (the paper
	// runs each workload multiple times because of PMC multiplexing).
	Runs int
	// Seed drives all stochastic components.
	Seed uint64
	// ExecutionJitter is the relative σ of node/run-level behavioural
	// variation (JIT, GC, OS noise). 0 disables it; the default is 6 %,
	// in line with run-to-run variation on real JVM clusters.
	ExecutionJitter float64
	// Parallelism bounds concurrent node simulations (0 = GOMAXPROCS).
	Parallelism int
}

// DefaultConfig returns the paper-shaped setup at simulation scale.
func DefaultConfig() Config {
	return Config{
		Machine:             machine.Westmere(),
		SlaveNodes:          4,
		InstructionsPerCore: 60000,
		Slices:              120,
		Monitor:             perf.DefaultMonitor(),
		Runs:                1,
		Seed:                20140901,
		ExecutionJitter:     0.06,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.SlaveNodes < 1 {
		return fmt.Errorf("cluster: need ≥1 slave node, got %d", c.SlaveNodes)
	}
	if c.NodeOffset < 0 {
		return fmt.Errorf("cluster: negative NodeOffset %d", c.NodeOffset)
	}
	if c.InstructionsPerCore < 1000 {
		return fmt.Errorf("cluster: InstructionsPerCore %d too small (≥1000)", c.InstructionsPerCore)
	}
	if c.Slices < 1 {
		return fmt.Errorf("cluster: Slices must be ≥1")
	}
	if c.Runs < 1 {
		return fmt.Errorf("cluster: Runs must be ≥1")
	}
	if c.ExecutionJitter < 0 || c.ExecutionJitter > 0.5 {
		return fmt.Errorf("cluster: ExecutionJitter %v out of [0,0.5]", c.ExecutionJitter)
	}
	return c.Monitor.Validate()
}

// nodeWorker bundles the per-worker simulation state that is reused
// across node-runs, and across grids through workerPools: one machine
// (caches, TLBs, predictors — by far the largest allocation of the hot
// path) and one snapshot buffer.
type nodeWorker struct {
	m   *machine.Machine
	res machine.RunResult
}

func newNodeWorker(cfg Config) (*nodeWorker, error) {
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	return &nodeWorker{m: m}, nil
}

// maxWorkerPools bounds how many machine configurations keep a pool of
// idle node workers. Jobs name their machine, so a daemon can be fed
// ever-new configurations; past the bound every pool is forgotten and
// the runtime reclaims their machines.
const maxWorkerPools = 16

// workerPools holds the idle node workers of finished grids, one
// sync.Pool per machine configuration, so a daemon running many small
// grids builds a machine (~8 MB of cache arrays at Westmere scale) once
// per worker instead of once per grid. A sync.Pool lets the runtime drop
// idle machines at garbage collection, so an idle daemon gives their
// memory back.
var workerPools struct {
	mu    sync.Mutex
	pools map[machine.Config]*sync.Pool
}

// workerPool returns the pool of idle node workers for mc.
func workerPool(mc machine.Config) *sync.Pool {
	workerPools.mu.Lock()
	defer workerPools.mu.Unlock()
	p := workerPools.pools[mc]
	if p == nil {
		if workerPools.pools == nil || len(workerPools.pools) >= maxWorkerPools {
			workerPools.pools = make(map[machine.Config]*sync.Pool)
		}
		p = new(sync.Pool)
		workerPools.pools[mc] = p
	}
	return p
}

// runNode simulates one (workload, run, node) cell of the measurement
// grid and returns its 45-metric vector. The per-cell seed depends only
// on (workload, run, absolute node index) and cfg.Seed, so every
// execution order — sequential, workload-parallel, fully flattened, or
// node-sharded across processes — produces bit-identical results. A
// canceled ctx stops the cell at its next slice boundary.
func (nw *nodeWorker) runNode(ctx context.Context, w workloads.Workload, cfg Config, run, node int) ([]float64, error) {
	seed := cfg.Seed ^
		(uint64(cfg.NodeOffset+node)+1)*0x9E3779B97F4A7C15 ^
		(uint64(run)+1)*0xC2B2AE3D27D4EB4F ^
		hash(w.Name)
	prof := jitterProfile(w.Profile, cfg.ExecutionJitter, rng.New(seed^0xD1B54A32D192ED03))
	sources, err := trace.Sources(prof, seed, cfg.Machine.Cores())
	if err != nil {
		return nil, err
	}
	nw.m.Reset()
	if err := nw.m.RunIntoCtx(ctx, &nw.res, sources, cfg.InstructionsPerCore, cfg.Slices); err != nil {
		return nil, err
	}
	counts, err := perf.Measure(nw.res.Snapshots, cfg.Monitor)
	if err != nil {
		return nil, err
	}
	return perf.MetricVector(&counts), nil
}

// ReduceCells folds one workload's per-cell metric vectors (indexed
// [run][node]) into the node- then run-averaged 45-metric vector. This is
// the single canonical reduction: the in-process grid and the distributed
// shard merge both go through it, which is what makes a re-assembled
// sharded run byte-identical to a single-process run.
func ReduceCells(cells [][][]float64) []float64 {
	runVectors := make([][]float64, len(cells))
	for run, perNode := range cells {
		runVectors[run] = perf.AverageVectors(perNode)
	}
	return perf.AverageVectors(runVectors)
}

// FillCellsCtx runs the measurement grid: it computes the nil cells of
// a grid indexed [workload][run][node] and returns the grid, in suite
// order and without the node/run reduction (ReduceCells). A nil grid is
// a fresh one; a given grid must have the full extents (ProbeColumns
// builds one), and its non-nil cells — measured earlier, or read from a
// cell cache — are left as they are. The cells to compute form one work
// queue drained by a bounded pool of Config.Parallelism workers (0 =
// GOMAXPROCS), each owning a single reusable machine; since per-cell
// seeds are pure functions of (workload, run, absolute node), the cells
// are bit-identical at any parallelism, and sub-grids split on the
// workload and node axes re-assemble into the full grid bit for bit.
// Workers take their machines from the pool of cfg.Machine's idle
// workers and return them when the grid is done, canceled or not:
// runNode resets a machine before every cell, so a reused machine
// measures exactly like a fresh one.
//
// Workers check ctx between cells and stop as soon as it is cancelled,
// returning ctx.Err(). progress (if non-nil) counts given cells as done:
// it is called once with their number when there are any, then after
// every computed cell, with the cells finished and the grid total.
func FillCellsCtx(ctx context.Context, suite []workloads.Workload, cfg Config, cells [][][][]float64, progress Progress) ([][][][]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("cluster: empty suite")
	}
	if cells == nil {
		cells = newCells(len(suite), cfg)
	}

	type task struct{ wi, run, node, ti int } // ti: flat task index
	ntasks := len(suite) * cfg.Runs * cfg.SlaveNodes

	// Each task writes its own cell, so no locking is needed; only the
	// cells the caller left nil are queued.
	tasks := make(chan task, ntasks)
	ti, queued := 0, 0
	for wi := range suite {
		for run := 0; run < cfg.Runs; run++ {
			for node := 0; node < cfg.SlaveNodes; node++ {
				if cells[wi][run][node] == nil {
					tasks <- task{wi, run, node, ti}
					queued++
				}
				ti++
			}
		}
	}
	close(tasks)
	given := ntasks - queued
	if progress != nil && given > 0 {
		progress(given, ntasks)
	}

	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > queued {
		// A fully given grid spins up no workers (and builds no machines).
		par = queued
	}

	// errs is indexed by flat task index: every slot has exactly one
	// writer (the worker that consumed that task), so no locking is
	// needed and the first failure in task order is reported
	// deterministically.
	errs := make([]error, ntasks)
	taskWorkload := make([]int, ntasks)
	var done atomic.Int64
	done.Store(int64(given)) // given cells count toward the grid total
	pool := workerPool(cfg.Machine)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nw, _ := pool.Get().(*nodeWorker)
			var werr error
			if nw == nil {
				nw, werr = newNodeWorker(cfg)
			}
			if werr == nil {
				defer pool.Put(nw)
			}
			for t := range tasks {
				taskWorkload[t.ti] = t.wi
				if werr != nil {
					// Worker never got a machine (machine.New rejected the
					// config): mark every task this worker drains.
					errs[t.ti] = werr
					continue
				}
				if err := ctx.Err(); err != nil {
					// Cancelled: drain the queue without simulating so the
					// pool exits promptly.
					errs[t.ti] = err
					continue
				}
				v, err := nw.runNode(ctx, suite[t.wi], cfg, t.run, t.node)
				if err != nil {
					errs[t.ti] = err
					continue
				}
				cells[t.wi][t.run][t.node] = v
				if progress != nil {
					progress(int(done.Add(1)), ntasks)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: workload %s: %w", suite[taskWorkload[i]].Name, err)
		}
	}
	return cells, nil
}

// newCells allocates an empty grid for n workloads under cfg, indexed
// [workload][run][node].
func newCells(n int, cfg Config) [][][][]float64 {
	cells := make([][][][]float64, n)
	for wi := range cells {
		cells[wi] = make([][][]float64, cfg.Runs)
		for run := range cells[wi] {
			cells[wi][run] = make([][]float64, cfg.SlaveNodes)
		}
	}
	return cells
}

func hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
