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

func TestRunWorkloadShape(t *testing.T) {
	ws := twoWorkloads(t)
	m, err := RunWorkload(ws[0], fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Metrics) != perf.NumMetrics {
		t.Fatalf("metric vector has %d entries, want %d", len(m.Metrics), perf.NumMetrics)
	}
	if len(m.PerNode) != 2 {
		t.Fatalf("PerNode has %d entries, want 2", len(m.PerNode))
	}
	// Basic sanity: the LOAD fraction should be in a plausible range.
	i, err := perf.MetricIndex("LOAD")
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics[i] < 0.05 || m.Metrics[i] > 0.6 {
		t.Errorf("LOAD = %v, implausible", m.Metrics[i])
	}
}

func TestRunWorkloadDeterministic(t *testing.T) {
	ws := twoWorkloads(t)
	a, err := RunWorkload(ws[0], fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(ws[0], fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Metrics {
		if a.Metrics[i] != b.Metrics[i] {
			t.Fatalf("metric %d differs across identical runs: %v vs %v", i, a.Metrics[i], b.Metrics[i])
		}
	}
}

func TestStacksProduceDifferentMetrics(t *testing.T) {
	ws := twoWorkloads(t)
	cfg := fastConfig()
	h, err := RunWorkload(ws[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunWorkload(ws[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	different := 0
	for i := range h.Metrics {
		if h.Metrics[i] != s.Metrics[i] {
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
	ms, err := Characterize(ws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements", len(ms))
	}
	if ms[0].Workload.Name != "H-Sort" || ms[1].Workload.Name != "S-Sort" {
		t.Errorf("order not preserved: %s, %s", ms[0].Workload.Name, ms[1].Workload.Name)
	}
	// Parallel run must equal the serial one (determinism across
	// goroutine scheduling).
	serial, err := RunWorkload(ws[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Metrics {
		if ms[0].Metrics[i] != serial.Metrics[i] {
			t.Fatal("parallel characterization diverged from serial run")
		}
	}
}

func TestCharacterizeParallelismDeterminism(t *testing.T) {
	ws := twoWorkloads(t)
	cfg := fastConfig()
	cfg.Runs = 2 // exercise the full workload×run×node grid
	cfg.Parallelism = 1
	want, err := Characterize(ws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		cfg.Parallelism = par
		got, err := Characterize(ws, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for wi := range want {
			if !reflect.DeepEqual(got[wi].Metrics, want[wi].Metrics) {
				t.Fatalf("Parallelism=%d: workload %s Metrics diverged from sequential",
					par, want[wi].Workload.Name)
			}
			if !reflect.DeepEqual(got[wi].PerNode, want[wi].PerNode) {
				t.Fatalf("Parallelism=%d: workload %s PerNode diverged from sequential",
					par, want[wi].Workload.Name)
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
	if _, err := Characterize(nil, fastConfig()); err == nil {
		t.Error("empty suite accepted")
	}
}

func TestMetricMatrix(t *testing.T) {
	ws := twoWorkloads(t)
	ms, err := Characterize(ws, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows, labels := MetricMatrix(ms)
	if len(rows) != 2 || len(labels) != 2 {
		t.Fatalf("matrix shape %dx, labels %d", len(rows), len(labels))
	}
	if labels[0] != "H-Sort" || len(rows[0]) != perf.NumMetrics {
		t.Errorf("labels/rows wrong: %v, %d", labels, len(rows[0]))
	}
}

func TestMultiRunAveraging(t *testing.T) {
	ws := twoWorkloads(t)
	cfg := fastConfig()
	cfg.Runs = 2
	m, err := RunWorkload(ws[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Metrics) != perf.NumMetrics {
		t.Fatalf("metric vector has %d entries", len(m.Metrics))
	}
}
