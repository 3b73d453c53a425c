package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bigdata/workloads"
)

// TestPipelineParallelismInvariant runs the full pipeline (characterize +
// analyze) sequentially and with parallel workers and asserts the outputs
// are identical: per-cell simulation seeds depend only on grid
// coordinates, and every parallel reduction (restart best-pick, BIC K
// scan) is deterministic.
func TestPipelineParallelismInvariant(t *testing.T) {
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sub []workloads.Workload
	for _, name := range []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"} {
		w, err := workloads.ByName(suite, name)
		if err != nil {
			t.Fatal(err)
		}
		sub = append(sub, w)
	}

	ccfg := fastCluster()
	ccfg.SlaveNodes = 2
	ccfg.Runs = 2
	acfg := DefaultAnalysis()
	acfg.KMax = 3

	run := func(par int) (*ObservationMatrix, *Analysis) {
		c := ccfg
		c.Parallelism = par
		a := acfg
		a.Parallelism = par
		om, err := CharacterizeObservationsCtx(context.Background(), sub, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := CharacterizeSuite(sub, c)
		if err != nil {
			t.Fatal(err)
		}
		an, err := Analyze(ds, a)
		if err != nil {
			t.Fatal(err)
		}
		return om, an
	}

	wantCells, want := run(1)
	for _, par := range []int{2, 8} {
		gotCells, got := run(par)
		if !reflect.DeepEqual(got.Dataset.Rows, want.Dataset.Rows) {
			t.Fatalf("Parallelism=%d: characterization metrics diverged", par)
		}
		for w := range wantCells.Cells {
			for r := range wantCells.Cells[w] {
				for n, vec := range wantCells.Cells[w][r] {
					if !reflect.DeepEqual(gotCells.Cells[w][r][n], vec) {
						t.Fatalf("Parallelism=%d: cell [%d][%d][%d] diverged", par, w, r, n)
					}
				}
			}
		}
		if got.KBest.K != want.KBest.K || got.KBest.BIC != want.KBest.BIC {
			t.Fatalf("Parallelism=%d: KBest K=%d BIC=%v, want K=%d BIC=%v",
				par, got.KBest.K, got.KBest.BIC, want.KBest.K, want.KBest.BIC)
		}
		if !reflect.DeepEqual(got.KBest.Assign, want.KBest.Assign) {
			t.Fatalf("Parallelism=%d: K-means assignment diverged", par)
		}
		if !reflect.DeepEqual(got.Dendrogram.Merges, want.Dendrogram.Merges) {
			t.Fatalf("Parallelism=%d: dendrogram diverged", par)
		}
		if !reflect.DeepEqual(got.SubsetNames(), want.SubsetNames()) {
			t.Fatalf("Parallelism=%d: representative subset diverged", par)
		}
	}
}
