package cluster

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bigdata/workloads"
	"repro/internal/cellcache"
	"repro/internal/perf"
)

// memCellCache is a map-backed CellCache for tests: shape-checked like
// the real store, safe for the grid's concurrent workers.
type memCellCache struct {
	mu           sync.Mutex
	cols         map[string][][]float64
	hits, misses int
	stores       int
}

func newMemCellCache() *memCellCache {
	return &memCellCache{cols: map[string][][]float64{}}
}

func (c *memCellCache) GetCell(workload, key string, runs, metrics int) ([][]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	vecs, ok := c.cols[key]
	if !ok || len(vecs) != runs {
		c.misses++
		return nil, false
	}
	for _, v := range vecs {
		if len(v) != metrics {
			c.misses++
			return nil, false
		}
	}
	c.hits++
	return vecs, true
}

func (c *memCellCache) PutCell(workload, key string, vecs [][]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cols[key] = vecs
	c.stores++
}

func testSuite(t *testing.T, n int) []workloads.Workload {
	t.Helper()
	suite, err := workloads.Suite(workloads.Config{Seed: 11, Scale: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) < n {
		t.Fatalf("suite has %d workloads, need %d", len(suite), n)
	}
	return suite[:n]
}

func tinyGridConfig() Config {
	cfg := DefaultConfig()
	cfg.Machine.Sockets, cfg.Machine.CoresPerSocket = 1, 2
	cfg.Machine.L1I.SizeB = 1 << 10
	cfg.Machine.L1D.SizeB = 1 << 10
	cfg.Machine.L2.SizeB = 4 << 10
	cfg.Machine.L3.SizeB = 32 << 10
	cfg.SlaveNodes = 2
	cfg.InstructionsPerCore = 2000
	cfg.Slices = 6
	cfg.Runs = 2
	cfg.Parallelism = 2
	return cfg
}

func TestCellKeyIdentityAndSensitivity(t *testing.T) {
	suite := testSuite(t, 2)
	cfg := tinyGridConfig()

	base, err := CellKey(suite[0], cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not 64 hex digits", base)
	}
	again, _ := CellKey(suite[0], cfg, 1)
	if base != again {
		t.Fatal("identical inputs produced different keys")
	}

	// Every simulation-relevant input must perturb the key.
	perturb := map[string]func() (string, error){
		"node":     func() (string, error) { return CellKey(suite[0], cfg, 0) },
		"workload": func() (string, error) { return CellKey(suite[1], cfg, 1) },
		"seed": func() (string, error) {
			c := cfg
			c.Seed++
			return CellKey(suite[0], c, 1)
		},
		"jitter": func() (string, error) {
			c := cfg
			c.ExecutionJitter += 0.01
			return CellKey(suite[0], c, 1)
		},
		"instructions": func() (string, error) {
			c := cfg
			c.InstructionsPerCore += 1000
			return CellKey(suite[0], c, 1)
		},
		"slices": func() (string, error) {
			c := cfg
			c.Slices++
			return CellKey(suite[0], c, 1)
		},
		"runs": func() (string, error) {
			c := cfg
			c.Runs++
			return CellKey(suite[0], c, 1)
		},
		"machine": func() (string, error) {
			c := cfg
			c.Machine.L2.SizeB *= 2
			return CellKey(suite[0], c, 1)
		},
		"profile": func() (string, error) {
			w := suite[0]
			w.Profile.Compute.LoadFrac += 0.01
			return CellKey(w, cfg, 1)
		},
	}
	for name, fn := range perturb {
		k, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == base {
			t.Errorf("perturbing %s did not change the cell key", name)
		}
	}

	// Execution-only knobs must NOT perturb the key.
	c := cfg
	c.Parallelism = 7
	c.SlaveNodes = 9
	if k, _ := CellKey(suite[0], c, 1); k != base {
		t.Error("execution-only knobs changed the cell key")
	}
}

// TestCellKeyShardEquivalence pins the sharding identity: a sub-campaign
// at NodeOffset o addressing its local node n derives the same key as
// the full grid addressing absolute node o+n.
func TestCellKeyShardEquivalence(t *testing.T) {
	suite := testSuite(t, 1)
	full := tinyGridConfig()
	sub := full
	sub.NodeOffset, sub.SlaveNodes = 1, 1

	want, err := CellKey(suite[0], full, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CellKey(suite[0], sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("shard key %s != full-grid key %s", got, want)
	}
}

// cachedGrid runs one grid the way the unit core does: probe cc, fill
// the cells it left nil, then store the missed columns. It returns the
// grid and the furthest progress report.
func cachedGrid(t *testing.T, cc CellCache, suite []workloads.Workload, cfg Config) (cells [][][][]float64, done, total int) {
	t.Helper()
	cells, keys, _ := ProbeColumns(cc, suite, cfg)
	var mu sync.Mutex
	cells, err := FillCellsCtx(context.Background(), suite, cfg, cells, func(d, n int) {
		mu.Lock()
		defer mu.Unlock()
		done, total = max(done, d), n
	})
	if err != nil {
		t.Fatal(err)
	}
	StoreColumns(cc, suite, keys, cells)
	return cells, done, total
}

// TestCharacterizeCellsCached is the determinism contract of probe →
// fill → store: a warm-cache run must produce cells identical to the cold
// run, with every column served from the cache and nothing recomputed.
func TestCharacterizeCellsCached(t *testing.T) {
	suite := testSuite(t, 2)
	cfg := tinyGridConfig()

	plain, err := FillCellsCtx(context.Background(), suite, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	cc := newMemCellCache()
	cold, _, _ := cachedGrid(t, cc, suite, cfg)
	if !reflect.DeepEqual(cold, plain) {
		t.Fatal("cold cached run differs from uncached run")
	}
	wantCols := len(suite) * cfg.SlaveNodes
	if cc.stores != wantCols || cc.hits != 0 {
		t.Fatalf("cold run: stores=%d hits=%d, want %d/0", cc.stores, cc.hits, wantCols)
	}

	warm, progDone, progTotal := cachedGrid(t, cc, suite, cfg)
	if !reflect.DeepEqual(warm, plain) {
		t.Fatal("warm cached run differs from uncached run")
	}
	if cc.hits != wantCols {
		t.Fatalf("warm run hit %d columns, want %d", cc.hits, wantCols)
	}
	if cc.stores != wantCols {
		t.Fatalf("warm run re-stored columns: stores=%d, want %d", cc.stores, wantCols)
	}
	// Cached cells still count toward the full grid total.
	ntasks := len(suite) * cfg.Runs * cfg.SlaveNodes
	if progDone != ntasks || progTotal != ntasks {
		t.Fatalf("warm progress reported %d/%d, want %d/%d", progDone, progTotal, ntasks, ntasks)
	}

	// Partial warmth: a changed workload definition invalidates exactly
	// its own columns.
	mut := append([]workloads.Workload(nil), suite...)
	mut[0].Profile.Compute.LoadFrac += 0.02
	before := cc.hits
	mutCells, _, _ := cachedGrid(t, cc, mut, cfg)
	if cc.hits-before != cfg.SlaveNodes {
		t.Fatalf("partial warm run hit %d columns, want %d (only the unchanged workload)",
			cc.hits-before, cfg.SlaveNodes)
	}
	plainMut, err := FillCellsCtx(context.Background(), mut, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mutCells, plainMut) {
		t.Fatal("partially cached run differs from uncached run")
	}
}

// TestFillCellsKeepsGivenCells tells a skipped cell from a recomputed one:
// the given cells hold sentinel vectors no simulation produces, and after
// the fill each is still that very vector (same backing array), while
// every nil cell holds what the plain grid computes. Progress starts at
// the given count and ends at the grid total.
func TestFillCellsKeepsGivenCells(t *testing.T) {
	suite := testSuite(t, 2)
	cfg := tinyGridConfig()
	cfg.Parallelism = 1 // one worker: progress reports arrive in order
	plain, err := FillCellsCtx(context.Background(), suite, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	cells := newCells(len(suite), cfg)
	given := map[[3]int][]float64{}
	for run := 0; run < cfg.Runs; run++ {
		// Workload 0's node-1 column and one lone cell of workload 1.
		given[[3]int{0, run, 1}] = nil
	}
	given[[3]int{1, 0, 0}] = nil
	for at := range given {
		v := make([]float64, perf.NumMetrics)
		for i := range v {
			v[i] = -1 - float64(i)
		}
		given[at] = v
		cells[at[0]][at[1]][at[2]] = v
	}

	var reports [][2]int
	filled, err := FillCellsCtx(context.Background(), suite, cfg, cells, func(done, total int) {
		reports = append(reports, [2]int{done, total})
	})
	if err != nil {
		t.Fatal(err)
	}
	if &filled[0] != &cells[0] {
		t.Fatal("fill returned a new grid instead of the given one")
	}
	for wi := range plain {
		for run := range plain[wi] {
			for node := range plain[wi][run] {
				got := cells[wi][run][node]
				if v, ok := given[[3]int{wi, run, node}]; ok {
					if &got[0] != &v[0] || got[0] != -1 {
						t.Fatalf("given cell [%d][%d][%d] was recomputed or replaced", wi, run, node)
					}
					continue
				}
				if !reflect.DeepEqual(got, plain[wi][run][node]) {
					t.Fatalf("computed cell [%d][%d][%d] differs from the plain grid", wi, run, node)
				}
			}
		}
	}

	ntasks := len(suite) * cfg.Runs * cfg.SlaveNodes
	if len(reports) != ntasks-len(given)+1 {
		t.Fatalf("%d progress reports, want one for the given cells and one per computed cell (%d)",
			len(reports), ntasks-len(given)+1)
	}
	for i, r := range reports {
		if want := len(given) + i; r != [2]int{want, ntasks} {
			t.Fatalf("progress report %d = %v, want [%d %d]", i, r, want, ntasks)
		}
	}

}

// TestProbeAndStoreColumns pins the column probe and write-back the unit
// core runs around every grid: with a partial hit only the hit columns are
// filled and keys come back only for the misses; a wrong-shape entry is
// a miss and is deleted; StoreColumns writes exactly the missed columns,
// after which a re-probe hits everywhere. A NodeOffset makes the keys
// absolute.
func TestProbeAndStoreColumns(t *testing.T) {
	suite := testSuite(t, 2)
	cfg := tinyGridConfig()
	cfg.NodeOffset = 3
	dir := t.TempDir()
	store, err := cellcache.Open(dir, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	nm := perf.NumMetrics
	column := func(fill float64, runs int) [][]float64 {
		vecs := make([][]float64, runs)
		for r := range vecs {
			vecs[r] = make([]float64, nm)
			for i := range vecs[r] {
				vecs[r][i] = fill + float64(r)
			}
		}
		return vecs
	}
	key := func(wi, node int) string {
		k, err := CellKey(suite[wi], cfg, node)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// (workload 0, node 1) is cached; (workload 1, node 0) holds one run
	// where the grid has two.
	store.PutCell(suite[0].Name, key(0, 1), column(10, cfg.Runs))
	store.PutCell(suite[1].Name, key(1, 0), column(20, 1))

	cells, keys, hits := ProbeColumns(store, suite, cfg)
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	for wi := range suite {
		for node := 0; node < cfg.SlaveNodes; node++ {
			hit := wi == 0 && node == 1
			for run := 0; run < cfg.Runs; run++ {
				if filled := cells[wi][run][node] != nil; filled != hit {
					t.Fatalf("cell [%d][%d][%d] filled = %v, want %v", wi, run, node, filled, hit)
				}
			}
			want := key(wi, node)
			if hit {
				want = ""
			}
			if keys[wi][node] != want {
				t.Fatalf("keys[%d][%d] = %q, want %q", wi, node, keys[wi][node], want)
			}
		}
	}
	if !reflect.DeepEqual(cells[0][1][1], column(10, cfg.Runs)[1]) {
		t.Fatal("hit column served the wrong vectors")
	}
	if _, err := os.Stat(filepath.Join(dir, key(1, 0)+".json")); !os.IsNotExist(err) {
		t.Fatalf("wrong-shape entry not deleted: %v", err)
	}

	// Fill the misses as a worker would, then write them back.
	for wi := range suite {
		for node := 0; node < cfg.SlaveNodes; node++ {
			if keys[wi][node] == "" {
				continue
			}
			col := column(float64(100*wi+node), cfg.Runs)
			for run := range col {
				cells[wi][run][node] = col[run]
			}
		}
	}
	StoreColumns(store, suite, keys, cells)
	if n := store.Len(); n != len(suite)*cfg.SlaveNodes {
		t.Fatalf("store holds %d columns, want %d", n, len(suite)*cfg.SlaveNodes)
	}
	again, keys2, hits2 := ProbeColumns(store, suite, cfg)
	if hits2 != len(suite)*cfg.SlaveNodes || !reflect.DeepEqual(again, cells) {
		t.Fatalf("re-probe hit %d columns (want %d) or served different cells", hits2, len(suite)*cfg.SlaveNodes)
	}
	for wi := range keys2 {
		for node, k := range keys2[wi] {
			if k != "" {
				t.Fatalf("re-probe returned a miss key for [%d][%d]", wi, node)
			}
		}
	}

	// Without a cache the probe fills nothing and reports no keys.
	empty, nokeys, nohits := ProbeColumns(nil, suite, cfg)
	if nohits != 0 || nokeys != nil || len(empty) != len(suite) || empty[0][0][0] != nil {
		t.Fatal("nil cache probe filled cells or reported keys")
	}
}
