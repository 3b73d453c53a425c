package service

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/cellcache"
	"repro/internal/core"
)

// runDone submits spec to m, waits for it to finish done and returns its
// status and result bytes.
func runDone(t *testing.T, m *Manager, spec JobSpec) (JobStatus, []byte) {
	t.Helper()
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID, 120*time.Second)
	if fin.State != StateDone {
		t.Fatalf("job %v finished %s: %s", spec.Workloads, fin.State, fin.Error)
	}
	data, ok := m.Result(st.ID)
	if !ok {
		t.Fatalf("job %v has no result bytes", spec.Workloads)
	}
	return fin, data
}

// probeCounts reads the cellcache-probe instant of a finished job's trace.
func probeCounts(t *testing.T, m *Manager, id string) (hits, misses int) {
	t.Helper()
	export, ok := m.Trace(id)
	if !ok {
		t.Fatalf("job %s has no trace", id)
	}
	for _, sp := range export.Spans {
		if sp.Name != "cellcache-probe" {
			continue
		}
		h, err1 := strconv.Atoi(sp.Attrs["hits"])
		m, err2 := strconv.Atoi(sp.Attrs["misses"])
		if err1 != nil || err2 != nil {
			t.Fatalf("cellcache-probe attrs %v", sp.Attrs)
		}
		return h, m
	}
	t.Fatalf("job %s trace has no cellcache-probe span", id)
	return 0, 0
}

// TestManagerCellCacheOverlap pins the worker-local cell cache: job B
// shares one workload with job A, so through one store it hits exactly
// that workload's columns, computes the rest, and still produces the
// bytes a manager without a cache produces. The per-job probe counts in
// the trace and the store counters in Status agree.
func TestManagerCellCacheOverlap(t *testing.T) {
	cells, err := cellcache.Open(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Parallelism: 2, Cells: cells})
	specA, specB := tinySpec(), tinySpec()
	specA.Workloads = []string{"H-Sort", "S-Sort"}
	specB.Workloads = []string{"H-Sort", "H-Grep"}
	nodes := specB.Cluster.SlaveNodes

	stA, _ := runDone(t, m, specA)
	if h, miss := probeCounts(t, m, stA.ID); h != 0 || miss != 2*nodes {
		t.Errorf("job A probe: hits=%d misses=%d, want 0/%d", h, miss, 2*nodes)
	}
	stB, dataB := runDone(t, m, specB)
	// H-Sort is the shared workload: one column per node.
	if h, miss := probeCounts(t, m, stB.ID); h != nodes || miss != nodes {
		t.Errorf("job B probe: hits=%d misses=%d, want %d/%d", h, miss, nodes, nodes)
	}

	cs := m.Status().CellCache
	if cs == nil {
		t.Fatal("Status reports no cell cache")
	}
	if cs.Hits != uint64(nodes) || cs.Misses != uint64(3*nodes) || cs.Stores != uint64(3*nodes) {
		t.Errorf("Status cell cache hits=%d misses=%d stores=%d, want %d/%d/%d",
			cs.Hits, cs.Misses, cs.Stores, nodes, 3*nodes, 3*nodes)
	}

	plain := newTestManager(t, Config{Parallelism: 2})
	if plain.Status().CellCache != nil {
		t.Error("manager without a cell cache reports one in Status")
	}
	stPlain, dataPlain := runDone(t, plain, specB)
	if !bytes.Equal(dataB, dataPlain) || stB.ResultHash != stPlain.ResultHash {
		t.Fatalf("cell-cached job B hash %s differs from uncached %s", stB.ResultHash, stPlain.ResultHash)
	}
}

// TestManagerCellCacheEventSteps tells a skipped column from a recomputed
// one through the event stream: job B's cached column (H-Sort, all runs
// on every node) arrives as one progress step, and every cell after it
// as its own step, up to the grid total. One grid worker keeps the
// per-cell reports in order.
func TestManagerCellCacheEventSteps(t *testing.T) {
	cells, err := cellcache.Open(t.TempDir(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Parallelism: 1, Cells: cells})
	specA, specB := tinySpec(), tinySpec()
	specA.Cluster.Runs, specB.Cluster.Runs = 2, 2
	specA.Workloads = []string{"H-Sort", "S-Sort"}
	specB.Workloads = []string{"H-Sort", "H-Grep"}
	nodes, runs := specB.Cluster.SlaveNodes, specB.Cluster.Runs

	runDone(t, m, specA)
	stB, _ := runDone(t, m, specB)
	j, ok := m.job(stB.ID)
	if !ok {
		t.Fatalf("job B %s has no record", stB.ID)
	}
	evs, _, _ := j.EventsSince(0)
	var done []int
	for _, ev := range evs {
		if ev.Type == "progress" && ev.Stage == string(core.StageCharacterize) {
			if ev.Total != 2*nodes*runs {
				t.Fatalf("progress total %d, want %d", ev.Total, 2*nodes*runs)
			}
			done = append(done, ev.Done)
		}
	}
	want := []int{nodes * runs}
	for d := nodes*runs + 1; d <= 2*nodes*runs; d++ {
		want = append(want, d)
	}
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("job B progress steps %v, want %v", done, want)
	}
}
