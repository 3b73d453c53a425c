package chaostest

// Cell-cache determinism scenarios: every merged result a coordinator
// produces with the shared cell cache in play — cold, fully warm, or
// partially warm across overlapping suites — must be byte-identical to
// the single-daemon golden run of the same spec. The warm scenario is
// the strongest form: a fresh coordinator with NO fleet at all serves
// the whole grid from cached cells.

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cellcache"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
)

// counterValue reads one un-labeled counter from a registry's text
// exposition (the same surface /metrics serves).
func counterValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parsing %s sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// cellStats is the bd_cellcache_* counter snapshot of one coordinator run.
type cellStats struct {
	hits, misses, stores float64
}

// runCellCached runs spec through a fresh coordinator (fresh executor,
// fresh manager — no result-cache or job-record carry-over) whose executor
// shares cellDir and plans upw units per worker, and returns the merged hash/bytes plus the run's cell
// counter deltas (the registry is fresh, so totals ARE deltas).
func runCellCached(t *testing.T, spec service.JobSpec, workers []string, cellDir string, upw int) (string, []byte, cellStats) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := chaosExecConfig(workers, upw)
	cells, err := cellcache.Open(cellDir, 0, 0, cellcache.NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cells = cells
	cfg.Registry = reg
	exec, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	coord, err := service.New(service.Config{Workers: 2, Execute: exec.Execute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, coord, st.ID, 120*time.Second)
	if fin.State != service.StateDone {
		t.Fatalf("cell-cached job finished %s: %s", fin.State, fin.Error)
	}
	data, ok := coord.Result(st.ID)
	if !ok {
		t.Fatal("cell-cached job has no result bytes")
	}
	return fin.ResultHash, data, cellStats{
		hits:   counterValue(t, reg, "bd_cellcache_hits_total"),
		misses: counterValue(t, reg, "bd_cellcache_misses_total"),
		stores: counterValue(t, reg, "bd_cellcache_stores_total"),
	}
}

// TestCellCacheColdWarmOverlap drives the coordinator's shared cell
// cache through its three regimes against one on-disk cache directory:
//
//   - cold: every column misses, is computed by the fleet, and is
//     written through — merged bytes equal the single-daemon golden.
//   - warm: a *fresh* coordinator with an empty fleet serves the whole
//     grid from cached cells — nothing to dispatch to, yet the merged
//     bytes still equal the golden.
//   - overlap: a suite sharing 3 of 4 workloads hits exactly the shared
//     columns, computes only the new workload's, and matches its own
//     golden.
func TestCellCacheColdWarmOverlap(t *testing.T) {
	cellDir := t.TempDir()
	const nodes = 2
	spec := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}, nodes, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)

	w1, w2 := startWorker(t), startWorker(t)
	urls := []string{w1.url, w2.url}

	hash, data, st := runCellCached(t, spec, urls, cellDir, 4)
	assertIdentical(t, "cold cell cache", wantHash, wantBytes, hash, data)
	if st.hits != 0 {
		t.Errorf("cold run: %v cell hits, want 0", st.hits)
	}
	// 4 workloads × 2 nodes = 8 columns, each stored once.
	if st.stores != 4*nodes {
		t.Errorf("cold run: %v cell stores, want %d", st.stores, 4*nodes)
	}

	// Warm: no workers at all. Every unit is assembled coordinator-side
	// from cached columns, so the job settles without a single dispatch.
	hash, data, st = runCellCached(t, spec, nil, cellDir, 4)
	assertIdentical(t, "warm cell cache (empty fleet)", wantHash, wantBytes, hash, data)
	if st.hits != 4*nodes || st.misses != 0 {
		t.Errorf("warm run: hits=%v misses=%v, want %d/0", st.hits, st.misses, 4*nodes)
	}

	// Overlap: 3 of 4 workloads shared. Only H-WordCount's columns are
	// computed; the rest arrive from the cache the first spec populated.
	spec2 := chaosSpec([]string{"H-Sort", "S-Sort", "H-Grep", "H-WordCount"}, nodes, 1, 1500, 8, false)
	wantHash2, wantBytes2 := golden(t, spec2)
	hash, data, st = runCellCached(t, spec2, urls, cellDir, 4)
	assertIdentical(t, "overlapping suite", wantHash2, wantBytes2, hash, data)
	if st.hits != 3*nodes {
		t.Errorf("overlap run: %v cell hits, want %d (3 shared workloads × %d nodes)", st.hits, 3*nodes, nodes)
	}
	if st.stores != 1*nodes {
		t.Errorf("overlap run: %v cell stores, want %d (1 new workload × %d nodes)", st.stores, nodes, nodes)
	}
}

// TestCellCacheStoresOnlyMisses pins the write-back rule for a partly
// cached unit: the columns that hit at probe time are already stored and
// must not be rewritten, so the unit's store count equals its misses. A
// restarted coordinator that re-tiles the grid meets such mixed units
// all the time.
func TestCellCacheStoresOnlyMisses(t *testing.T) {
	cellDir := t.TempDir()
	spec := chaosSpec([]string{"H-Sort", "S-Sort"}, 2, 1, 1500, 8, false)
	wantHash, wantBytes := golden(t, spec)
	urls := []string{startWorker(t).url}

	// Fill the cache, then drop half of its columns.
	runCellCached(t, spec, urls, cellDir, 4)
	entries, err := os.ReadDir(cellDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("cold run left %d cell entries, want 4", len(entries))
	}
	for _, e := range entries[:2] {
		if err := os.Remove(filepath.Join(cellDir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}

	// One worker × one unit per worker: a single unit over all four
	// columns, two of them cached.
	hash, data, st := runCellCached(t, spec, urls, cellDir, 1)
	assertIdentical(t, "partly cached unit", wantHash, wantBytes, hash, data)
	if st.hits != 2 || st.misses != 2 {
		t.Fatalf("partly cached unit: hits=%v misses=%v, want 2/2", st.hits, st.misses)
	}
	if st.stores != st.misses {
		t.Errorf("partly cached unit stored %v columns, want only its %v misses", st.stores, st.misses)
	}
}
