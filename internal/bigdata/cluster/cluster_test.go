package cluster

import (
	"context"
	"reflect"
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
// reset machine must measure exactly like a freshly allocated one.
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
