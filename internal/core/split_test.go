package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
)

func splitTestSuite(t *testing.T, names ...string) []workloads.Workload {
	t.Helper()
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := workloads.Select(suite, names)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// sameAnalysis asserts the split-pipeline analysis reproduces the fused
// one exactly: identical reduced rows and identical clustering outcome.
func sameAnalysis(t *testing.T, got, want *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(got.Dataset.Rows, want.Dataset.Rows) {
		t.Fatal("reduced dataset rows diverged")
	}
	if !reflect.DeepEqual(got.Dataset.Labels, want.Dataset.Labels) {
		t.Fatal("dataset labels diverged")
	}
	if got.KBest.K != want.KBest.K || got.KBest.BIC != want.KBest.BIC {
		t.Fatalf("clustering diverged: K=%d/BIC=%v vs K=%d/BIC=%v",
			got.KBest.K, got.KBest.BIC, want.KBest.K, want.KBest.BIC)
	}
	if !reflect.DeepEqual(got.KBest.Assign, want.KBest.Assign) {
		t.Fatal("cluster assignment diverged")
	}
	if !reflect.DeepEqual(got.FarthestReps, want.FarthestReps) {
		t.Fatal("representative selection diverged")
	}
}

// TestSplitPipelineMatchesFused checks that the characterize-only +
// analyze-observations split reproduces the fused CharacterizeSuiteCtx +
// AnalyzeCtx path exactly.
func TestSplitPipelineMatchesFused(t *testing.T) {
	suite := splitTestSuite(t, "H-Sort", "S-Sort", "H-Grep", "S-Grep")
	ccfg := fastCluster()
	ccfg.SlaveNodes = 2
	ccfg.Runs = 2
	acfg := DefaultAnalysis()
	acfg.KMax = 3

	ds, err := CharacterizeSuiteCtx(context.Background(), suite, ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeCtx(context.Background(), ds, acfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	om, err := CharacterizeObservationsCtx(context.Background(), suite, ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Validate(); err != nil {
		t.Fatal(err)
	}
	if om.Runs() != 2 || om.Nodes() != 2 {
		t.Fatalf("matrix extents %d runs × %d nodes, want 2×2", om.Runs(), om.Nodes())
	}
	got, err := AnalyzeObservationsCtx(context.Background(), om, acfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, got, want)
}

// TestCharacterizeSuiteLabelsInSuiteOrder checks that the characterized
// dataset keeps the suite's order, not a sorted one: each label sits at
// its workload's index, and each row is the one that workload measures
// on its own.
func TestCharacterizeSuiteLabelsInSuiteOrder(t *testing.T) {
	names := []string{"S-Sort", "H-Grep", "H-Sort"}
	suite := splitTestSuite(t, names...)
	ccfg := fastCluster()
	ds, err := CharacterizeSuiteCtx(context.Background(), suite, ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Labels, names) {
		t.Fatalf("labels %v, want suite order %v", ds.Labels, names)
	}
	if len(ds.Rows) != len(names) {
		t.Fatalf("%d rows for %d workloads", len(ds.Rows), len(names))
	}
	for i, w := range suite {
		if len(ds.Rows[i]) != len(ds.Metrics) || len(ds.Metrics) != 45 {
			t.Fatalf("row %d has %d of %d metrics, want 45", i, len(ds.Rows[i]), len(ds.Metrics))
		}
		alone, err := CharacterizeSuiteCtx(context.Background(), []workloads.Workload{w}, ccfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds.Rows[i], alone.Rows[0]) {
			t.Fatalf("row %d is not %s's measurement", i, w.Name)
		}
	}
}

// TestShardedObservationsMergeBitIdentical splits the grid on both the
// workload and node axes (2 workload chunks × 2 node ranges = 4 shard
// campaigns), re-assembles the observation matrix in canonical cell
// order, and checks the analysis is identical to the unsharded run —
// the determinism argument behind the bdcoord coordinator.
func TestShardedObservationsMergeBitIdentical(t *testing.T) {
	names := []string{"H-Sort", "S-Sort", "H-Grep", "S-Grep"}
	suite := splitTestSuite(t, names...)
	ccfg := fastCluster()
	ccfg.SlaveNodes = 2
	ccfg.Runs = 2
	acfg := DefaultAnalysis()
	acfg.KMax = 3

	full, err := CharacterizeObservationsCtx(context.Background(), suite, ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeObservationsCtx(context.Background(), full, acfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	merged := &ObservationMatrix{
		Labels:  full.Labels,
		Metrics: full.Metrics,
		Cells:   make([][][][]float64, len(suite)),
	}
	for w := range merged.Cells {
		merged.Cells[w] = make([][][]float64, ccfg.Runs)
		for r := range merged.Cells[w] {
			merged.Cells[w][r] = make([][]float64, ccfg.SlaveNodes)
		}
	}
	for _, wRange := range [][2]int{{0, 2}, {2, 4}} {
		for _, nRange := range [][2]int{{0, 1}, {1, 2}} {
			sub := suite[wRange[0]:wRange[1]]
			scfg := ccfg
			scfg.NodeOffset = nRange[0]
			scfg.SlaveNodes = nRange[1] - nRange[0]
			om, err := CharacterizeObservationsCtx(context.Background(), sub, scfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for wi := range sub {
				for r := 0; r < ccfg.Runs; r++ {
					for n := 0; n < scfg.SlaveNodes; n++ {
						merged.Cells[wRange[0]+wi][r][nRange[0]+n] = om.Cells[wi][r][n]
					}
				}
			}
		}
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Cells, full.Cells) {
		t.Fatal("sharded cells differ from the unsharded grid")
	}
	got, err := AnalyzeObservationsCtx(context.Background(), merged, acfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, got, want)
}

// TestObservationMatrixValidate exercises the shape checks.
func TestObservationMatrixValidate(t *testing.T) {
	om := &ObservationMatrix{
		Labels:  []string{"A", "B"},
		Metrics: []string{"m1", "m2"},
		Cells: [][][][]float64{
			{{{1, 2}}},
			{{{3, 4}}},
		},
	}
	if err := om.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	bad := *om
	bad.Cells = om.Cells[:1]
	if err := bad.Validate(); err == nil {
		t.Error("label/cell count mismatch accepted")
	}
	ragged := &ObservationMatrix{
		Labels:  []string{"A", "B"},
		Metrics: []string{"m1", "m2"},
		Cells: [][][][]float64{
			{{{1, 2}}},
			{{{3, 4}, {5, 6}}},
		},
	}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged node axis accepted")
	}
	short := &ObservationMatrix{
		Labels:  []string{"A"},
		Metrics: []string{"m1", "m2"},
		Cells:   [][][][]float64{{{{1}}}},
	}
	if err := short.Validate(); err == nil {
		t.Error("short metric vector accepted")
	}
	neg := *om
	neg.NodeOffset = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative node offset accepted")
	}
}

// TestNodeOffsetShiftsSeeds: a campaign at NodeOffset k must reproduce
// node columns [k, k+n) of the full grid, and differ from columns [0, n).
func TestNodeOffsetShiftsSeeds(t *testing.T) {
	suite := splitTestSuite(t, "H-Sort")
	ccfg := fastCluster()
	ccfg.SlaveNodes = 2

	full, err := cluster.FillCellsCtx(context.Background(), suite, ccfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	half := ccfg
	half.NodeOffset, half.SlaveNodes = 1, 1
	shifted, err := cluster.FillCellsCtx(context.Background(), suite, half, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shifted[0][0][0], full[0][0][1]) {
		t.Error("NodeOffset=1 did not reproduce node column 1")
	}
	if reflect.DeepEqual(shifted[0][0][0], full[0][0][0]) {
		t.Error("NodeOffset=1 produced node column 0's measurement")
	}
}
