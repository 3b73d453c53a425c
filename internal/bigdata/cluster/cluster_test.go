package cluster

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bigdata/workloads"
	"repro/internal/perf"
)

// fastConfig returns a configuration small enough for unit tests while
// still exercising the full path.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.SlaveNodes = 2
	cfg.InstructionsPerCore = 2000
	cfg.Slices = 8
	return cfg
}

func twoWorkloads(t *testing.T) []workloads.Workload {
	t.Helper()
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := workloads.ByName(suite, "H-Sort")
	if err != nil {
		t.Fatal(err)
	}
	s, err := workloads.ByName(suite, "S-Sort")
	if err != nil {
		t.Fatal(err)
	}
	return []workloads.Workload{h, s}
}

func TestConfigValidate(t *testing.T) {
	cfg := fastConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := fastConfig()
	bad.SlaveNodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 slaves accepted")
	}
	bad = fastConfig()
	bad.InstructionsPerCore = 10
	if err := bad.Validate(); err == nil {
		t.Error("tiny instruction budget accepted")
	}
	bad = fastConfig()
	bad.Runs = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 runs accepted")
	}
}

// characterize runs the grid over suite and reduces each workload's
// cells, returning the cells and the node- then run-averaged rows, both
// in suite order.
func characterize(t *testing.T, suite []workloads.Workload, cfg Config) (cells [][][][]float64, rows [][]float64) {
	t.Helper()
	cells, err := FillCellsCtx(context.Background(), suite, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows = make([][]float64, len(cells))
	for wi := range cells {
		rows[wi] = ReduceCells(cells[wi])
	}
	return cells, rows
}

func TestRunWorkloadShape(t *testing.T) {
	ws := twoWorkloads(t)
	cells, rows := characterize(t, ws[:1], fastConfig())
	if len(rows[0]) != perf.NumMetrics {
		t.Fatalf("metric vector has %d entries, want %d", len(rows[0]), perf.NumMetrics)
	}
	if len(cells[0][0]) != 2 {
		t.Fatalf("run has %d node cells, want 2", len(cells[0][0]))
	}
	for node, v := range cells[0][0] {
		if len(v) != perf.NumMetrics {
			t.Fatalf("node %d cell has %d entries, want %d", node, len(v), perf.NumMetrics)
		}
	}
	// Basic sanity: the LOAD fraction should be in a plausible range.
	i, err := perf.MetricIndex("LOAD")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][i] < 0.05 || rows[0][i] > 0.6 {
		t.Errorf("LOAD = %v, implausible", rows[0][i])
	}
}

func TestRunWorkloadDeterministic(t *testing.T) {
	ws := twoWorkloads(t)
	_, a := characterize(t, ws[:1], fastConfig())
	_, b := characterize(t, ws[:1], fastConfig())
	for i := range a[0] {
		if a[0][i] != b[0][i] {
			t.Fatalf("metric %d differs across identical runs: %v vs %v", i, a[0][i], b[0][i])
		}
	}
}

func TestStacksProduceDifferentMetrics(t *testing.T) {
	ws := twoWorkloads(t)
	_, rows := characterize(t, ws, fastConfig())
	h, s := rows[0], rows[1]
	different := 0
	for i := range h {
		if h[i] != s[i] {
			different++
		}
	}
	if different < 20 {
		t.Errorf("H-Sort and S-Sort differ in only %d/45 metrics", different)
	}
}

func TestCharacterizeOrderAndParallelism(t *testing.T) {
	ws := twoWorkloads(t)
	cfg := fastConfig()
	cfg.Parallelism = 2
	_, rows := characterize(t, ws, cfg)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Each row is its workload's own serial measurement: the suite order
	// is kept, and the parallel grid equals the serial one (determinism
	// across goroutine scheduling).
	cfg.Parallelism = 1
	for wi, w := range ws {
		_, serial := characterize(t, []workloads.Workload{w}, cfg)
		if !reflect.DeepEqual(rows[wi], serial[0]) {
			t.Fatalf("row %d is not %s's serial measurement", wi, w.Name)
		}
	}
}

func TestCharacterizeParallelismDeterminism(t *testing.T) {
	ws := twoWorkloads(t)
	cfg := fastConfig()
	cfg.Runs = 2 // exercise the full workload×run×node grid
	cfg.Parallelism = 1
	wantCells, wantRows := characterize(t, ws, cfg)
	for _, par := range []int{2, 4, 16} {
		cfg.Parallelism = par
		gotCells, gotRows := characterize(t, ws, cfg)
		for wi := range ws {
			if !reflect.DeepEqual(gotRows[wi], wantRows[wi]) {
				t.Fatalf("Parallelism=%d: workload %s row diverged from sequential",
					par, ws[wi].Name)
			}
			if !reflect.DeepEqual(gotCells[wi], wantCells[wi]) {
				t.Fatalf("Parallelism=%d: workload %s cells diverged from sequential",
					par, ws[wi].Name)
			}
		}
	}
}

// TestMachineReuseMatchesFresh guards the worker-pool optimization: a
// reset machine must measure exactly like a freshly allocated one — also
// when it comes back from a grid canceled in the middle of a cell.
func TestMachineReuseMatchesFresh(t *testing.T) {
	ws := twoWorkloads(t)
	cfg := fastConfig()
	nw, err := newNodeWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the worker with one run, then re-measure and compare against
	// a brand-new worker.
	if _, err := nw.runNode(context.Background(), ws[1], cfg, 0, 1); err != nil {
		t.Fatal(err)
	}
	reused, err := nw.runNode(context.Background(), ws[0], cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newNodeWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fresh.runNode(context.Background(), ws[0], cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, direct) {
		t.Fatal("reused machine produced different metrics than a fresh one")
	}

	// A grid canceled mid-cell returns its half-run machine to the pool;
	// the next grid over the same machine takes it and still measures
	// every cell as fresh workers do.
	want := freshCells(t, ws, cfg)
	serial := onePooledWorker(t)
	cfg.Parallelism = 1
	// The grid checks its context before the cell and the machine at
	// each of the cell's slice boundaries, so the fourth check falls
	// inside the first cell.
	ctx := &canceledAfter{Context: context.Background()}
	ctx.checks.Store(3)
	if _, err := FillCellsCtx(ctx, ws, cfg, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled grid returned %v, want context.Canceled", err)
	}
	var got [][][][]float64
	delta := allocated(func() { got, err = FillCellsCtx(context.Background(), ws, cfg, nil, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a grid after a canceled one measured different cells than fresh workers")
	}
	if serial && delta >= machineBytes(t, cfg)/2 {
		t.Errorf("the grid after a canceled one allocated %d bytes: it built a machine instead of taking the canceled grid's", delta)
	}
}

// freshCells measures every cell of the grid with a new worker of its
// own, bypassing the pool.
func freshCells(t *testing.T, suite []workloads.Workload, cfg Config) [][][][]float64 {
	t.Helper()
	cells := newCells(len(suite), cfg)
	for wi := range cells {
		for run := range cells[wi] {
			for node := range cells[wi][run] {
				nw, err := newNodeWorker(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cells[wi][run][node], err = nw.runNode(context.Background(), suite[wi], cfg, run, node); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return cells
}

// canceledAfter is a context whose Err reports context.Canceled once it
// has answered nil checks times.
type canceledAfter struct {
	context.Context
	checks atomic.Int64
}

func (c *canceledAfter) Err() error {
	if c.checks.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// onePooledWorker makes the pool deterministic for the rest of the test
// when it can, and reports whether it could: with one P and garbage
// collection off, a machine a grid returns is the one the next grid
// gets. Under the race detector sync.Pool drops Puts at random, so
// there the caller checks bytes only.
func onePooledWorker(t *testing.T) bool {
	t.Helper()
	if raceEnabled {
		return false
	}
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
	return true
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// machineBytes is the allocation of one node worker under cfg.
func machineBytes(t *testing.T, cfg Config) uint64 {
	t.Helper()
	var err error
	n := allocated(func() { _, err = newNodeWorker(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPooledGridBuildsNoMachine: a second grid over the same machine
// builds none; its allocation stays far below one machine's (~8 MB at
// Westmere scale against ~0.1 MB for the rest of a small grid).
func TestPooledGridBuildsNoMachine(t *testing.T) {
	if !onePooledWorker(t) {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	ws := twoWorkloads(t)
	cfg := fastConfig()
	cfg.Parallelism = 1
	first, err := FillCellsCtx(context.Background(), ws, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var second [][][][]float64
	delta := allocated(func() { second, err = FillCellsCtx(context.Background(), ws, cfg, nil, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("the pooled grid measured different cells")
	}
	if one := machineBytes(t, cfg); delta >= one/2 {
		t.Errorf("second grid allocated %d bytes, one machine is %d: it built a machine", delta, one)
	}
}

// TestConcurrentGridsOnTwoMachines runs grids over two machine
// configurations at once: each takes workers from its own pool and
// measures exactly what fresh workers measure. The second machine has a
// quarter of the L3 and half again the memory latency: at this budget
// the misses are cold ones, so the smaller L3 alone measures the same
// cells, and only the latency makes a machine from the wrong pool show.
func TestConcurrentGridsOnTwoMachines(t *testing.T) {
	ws := twoWorkloads(t)
	westmere := fastConfig()
	westmere.Parallelism = 2
	small := westmere
	small.Machine.L3.SizeB /= 4
	small.Machine.MemLatency = small.Machine.MemLatency * 3 / 2
	cfgs := []Config{westmere, small}
	solo := make([][][][][]float64, len(cfgs))
	for i, cfg := range cfgs {
		solo[i] = freshCells(t, ws, cfg)
	}
	if reflect.DeepEqual(solo[0], solo[1]) {
		t.Fatal("the two machines measured the same cells: the test cannot tell the pools apart")
	}
	// One grid each, one after the other, fills both pools first.
	for i, cfg := range cfgs {
		if cells, _ := characterize(t, ws, cfg); !reflect.DeepEqual(cells, solo[i]) {
			t.Fatalf("grid on machine %d after machine %d's differs from fresh workers' cells", i, (i+1)%len(cfgs))
		}
	}
	got := make([][][][][]float64, 2*len(cfgs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = FillCellsCtx(context.Background(), ws, cfgs[i%len(cfgs)], nil, nil)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], solo[i%len(cfgs)]) {
			t.Errorf("concurrent grid %d (machine %d) differs from fresh workers' cells", i, i%len(cfgs))
		}
	}
}

// TestWorkerPoolsBounded: jobs name their machine, so a daemon fed
// ever-new machine configurations keeps at most maxWorkerPools pools,
// while one configuration keeps finding its own.
func TestWorkerPoolsBounded(t *testing.T) {
	mc := DefaultConfig().Machine
	for i := range 2*maxWorkerPools + 1 {
		mc.MemLatency = uint64(1000 + i)
		workerPool(mc)
	}
	workerPools.mu.Lock()
	n := len(workerPools.pools)
	workerPools.mu.Unlock()
	if n > maxWorkerPools {
		t.Errorf("%d machine configurations hold %d pools, want at most %d", 2*maxWorkerPools+1, n, maxWorkerPools)
	}
	if workerPool(mc) != workerPool(mc) {
		t.Error("one machine configuration got two pools")
	}
}

func TestCharacterizeEmptySuite(t *testing.T) {
	if _, err := FillCellsCtx(context.Background(), nil, fastConfig(), nil, nil); err == nil {
		t.Error("empty suite accepted")
	}
}

func TestMultiRunAveraging(t *testing.T) {
	ws := twoWorkloads(t)
	cfg := fastConfig()
	cfg.Runs = 2
	cells, rows := characterize(t, ws[:1], cfg)
	if len(cells[0]) != 2 {
		t.Fatalf("grid has %d runs, want 2", len(cells[0]))
	}
	if len(rows[0]) != perf.NumMetrics {
		t.Fatalf("metric vector has %d entries", len(rows[0]))
	}
	// Run 0 is the single-run grid; the second run moves the average.
	cfg.Runs = 1
	oneCells, oneRows := characterize(t, ws[:1], cfg)
	if !reflect.DeepEqual(cells[0][0], oneCells[0][0]) {
		t.Fatal("run 0 of a two-run grid differs from the one-run grid")
	}
	if reflect.DeepEqual(rows[0], oneRows[0]) {
		t.Fatal("averaging in a second run left the row unchanged")
	}
}
