// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see DESIGN.md §6 for the experiment index):
//
//	BenchmarkTable1_WorkloadInventory   Table I    workload inventory
//	BenchmarkTable2_MetricCatalog       Table II   45-metric catalog
//	BenchmarkTable3_MachineConfig       Table III  hardware configuration
//	BenchmarkFigure1_Dendrogram         Fig. 1     similarity dendrogram
//	BenchmarkFigure2_PC12Scatter        Fig. 2     PC1/PC2 scatter
//	BenchmarkFigure3_PC34Scatter        Fig. 3     PC3/PC4 scatter
//	BenchmarkFigure4_FactorLoadings     Fig. 4     factor loadings
//	BenchmarkFigure5_StackRatios        Fig. 5     Hadoop/Spark metric ratios
//	BenchmarkTable4_KMeansClusters      Table IV   BIC-driven K-means clusters
//	BenchmarkTable5_Representatives     Table V    representative selection
//	BenchmarkFigure6_Kiviat             Fig. 6     representative Kiviat profiles
//
// plus ablation benches for the design choices DESIGN.md §7 calls out.
// The artifact bodies are printed once per run with -v (go test -bench
// -benchtime=1x -v) and written to bench_artifacts/ so the series can be
// compared against the paper (EXPERIMENTS.md).
//
// Benchmarks run at a reduced simulation scale (2 nodes, 12k instructions
// per core) so the full harness completes in minutes; the shape of every
// result is preserved. Use cmd/report for the full-scale run.
package repro

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/cluster/hier"
	"repro/internal/core"
	"repro/internal/num/pca"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/sim/event"
	"repro/internal/sim/machine"
)

// benchScale is the reduced-cost characterization used by the harness.
func benchClusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.SlaveNodes = 2
	cfg.InstructionsPerCore = 12000
	cfg.Slices = 60
	return cfg
}

var (
	benchOnce sync.Once
	benchDS   *core.Dataset
	benchAn   *core.Analysis
	benchObs  *core.Observations
	benchErr  error
)

// benchData characterizes the full 32-workload suite once per process.
func benchData(b *testing.B) (*core.Dataset, *core.Analysis, *core.Observations) {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = core.Characterize(workloads.DefaultConfig(), benchClusterConfig())
		if benchErr != nil {
			return
		}
		benchAn, benchErr = core.Analyze(benchDS, core.DefaultAnalysis())
		if benchErr != nil {
			return
		}
		benchObs, benchErr = benchAn.Observe()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS, benchAn, benchObs
}

// emit writes an artifact body to bench_artifacts/<name>.txt and logs it.
var emitted sync.Map

func emit(b *testing.B, name, body string) {
	b.Helper()
	if _, dup := emitted.LoadOrStore(name, true); dup {
		return
	}
	if err := os.MkdirAll("bench_artifacts", 0o755); err == nil {
		_ = os.WriteFile(fmt.Sprintf("bench_artifacts/%s.txt", name), []byte(body), 0o644)
	}
	b.Logf("%s:\n%s", name, body)
}

func BenchmarkTable1_WorkloadInventory(b *testing.B) {
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = report.Table1(suite)
	}
	emit(b, "table1", out)
}

func BenchmarkTable2_MetricCatalog(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table2()
	}
	emit(b, "table2", out)
}

func BenchmarkTable3_MachineConfig(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table3(machine.Westmere())
	}
	emit(b, "table3", out)
}

func BenchmarkFigure1_Dendrogram(b *testing.B) {
	ds, _, _ := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := core.Analyze(ds, core.DefaultAnalysis())
		if err != nil {
			b.Fatal(err)
		}
		out = report.Figure1(an)
	}
	emit(b, "figure1", out)
}

func BenchmarkFigure2_PC12Scatter(b *testing.B) {
	_, an, _ := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = report.Figure2(an)
	}
	emit(b, "figure2", out)
}

func BenchmarkFigure3_PC34Scatter(b *testing.B) {
	_, an, _ := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = report.Figure3(an)
	}
	emit(b, "figure3", out)
}

func BenchmarkFigure4_FactorLoadings(b *testing.B) {
	_, an, _ := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = report.Figure4(an)
	}
	emit(b, "figure4", out)
}

func BenchmarkFigure5_StackRatios(b *testing.B) {
	_, an, obs := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = report.Figure5(an, obs)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, "figure5", out)
}

func BenchmarkTable4_KMeansClusters(b *testing.B) {
	ds, _, _ := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := core.Analyze(ds, core.DefaultAnalysis())
		if err != nil {
			b.Fatal(err)
		}
		out = report.Table4(an)
	}
	emit(b, "table4", out)
}

func BenchmarkTable5_Representatives(b *testing.B) {
	_, an, _ := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = report.Table5(an)
	}
	emit(b, "table5", out)
}

func BenchmarkFigure6_Kiviat(b *testing.B) {
	_, an, _ := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = report.Figure6(an)
	}
	emit(b, "figure6", out)
}

func BenchmarkObservations(b *testing.B) {
	_, an, _ := benchData(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs, err := an.Observe()
		if err != nil {
			b.Fatal(err)
		}
		out = report.ObservationsReport(obs)
	}
	emit(b, "observations", out)
}

// BenchmarkCharacterizeWorkload measures the cost of one workload's full
// measurement path (trace → machine → PMC → 45 metrics).
func BenchmarkCharacterizeWorkload(b *testing.B) {
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	w, err := workloads.ByName(suite, "H-Sort")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchClusterConfig()
	cfg.SlaveNodes = 1
	cfg.InstructionsPerCore = 5000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CharacterizeSuite([]workloads.Workload{w}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §7) ---

// BenchmarkAblation_Linkage compares linkage strategies: the paper's
// single linkage versus complete, average and Ward, reporting how the
// same-stack first-iteration fraction (Observation 1) holds up.
func BenchmarkAblation_Linkage(b *testing.B) {
	ds, _, _ := benchData(b)
	for _, l := range []hier.Linkage{hier.Single, hier.Complete, hier.Average, hier.Ward} {
		l := l
		b.Run(l.String(), func(b *testing.B) {
			cfg := core.DefaultAnalysis()
			cfg.Linkage = l
			var frac float64
			for i := 0; i < b.N; i++ {
				an, err := core.Analyze(ds, cfg)
				if err != nil {
					b.Fatal(err)
				}
				obs, err := an.Observe()
				if err != nil {
					b.Fatal(err)
				}
				frac = obs.SameStackFraction
			}
			emit(b, "ablation_linkage_"+l.String(),
				fmt.Sprintf("linkage=%s same-stack first-iteration fraction=%.2f\n", l, frac))
		})
	}
}

// BenchmarkAblation_PCSelection compares Kaiser's criterion against a
// fixed 90 % variance threshold.
func BenchmarkAblation_PCSelection(b *testing.B) {
	ds, _, _ := benchData(b)
	for _, sel := range []struct {
		name string
		sel  core.PCSelection
	}{{"kaiser", core.Kaiser}, {"variance90", core.VarianceThreshold}} {
		sel := sel
		b.Run(sel.name, func(b *testing.B) {
			cfg := core.DefaultAnalysis()
			cfg.PCSelection = sel.sel
			var pcs int
			var variance float64
			for i := 0; i < b.N; i++ {
				an, err := core.Analyze(ds, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pcs, variance = an.NumPCs, an.Variance
			}
			emit(b, "ablation_pc_"+sel.name,
				fmt.Sprintf("selection=%s PCs=%d variance=%.4f\n", sel.name, pcs, variance))
		})
	}
}

// BenchmarkAblation_Seeding compares k-means++ multi-restart stability
// against single-restart seeding via the chosen K across seeds.
func BenchmarkAblation_Seeding(b *testing.B) {
	ds, _, _ := benchData(b)
	for _, restarts := range []int{1, 16} {
		restarts := restarts
		b.Run(fmt.Sprintf("restarts-%d", restarts), func(b *testing.B) {
			var ks []int
			for i := 0; i < b.N; i++ {
				ks = ks[:0]
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := core.DefaultAnalysis()
					cfg.KMeans.Restarts = restarts
					cfg.KMeans.Seed = seed
					an, err := core.Analyze(ds, cfg)
					if err != nil {
						b.Fatal(err)
					}
					ks = append(ks, an.KBest.K)
				}
			}
			emit(b, fmt.Sprintf("ablation_seeding_restarts%d", restarts),
				fmt.Sprintf("restarts=%d chosen K across 3 seeds=%v\n", restarts, ks))
		})
	}
}

// BenchmarkAblation_RepresentativePolicy quantifies the paper's §VI-B
// claim: the boundary (farthest) policy covers more linkage distance.
func BenchmarkAblation_RepresentativePolicy(b *testing.B) {
	_, an, _ := benchData(b)
	var near, far float64
	for i := 0; i < b.N; i++ {
		near, far = an.NearestMaxLinkage, an.FarthestMaxLinkage
	}
	emit(b, "ablation_policy",
		fmt.Sprintf("nearest max linkage=%.2f farthest max linkage=%.2f (farthest ≥ nearest: %v)\n",
			near, far, far >= near))
}

// BenchmarkAblation_Multiplexing compares multiplexed PMC collection
// against exact counting: the mean relative metric error it introduces.
func BenchmarkAblation_Multiplexing(b *testing.B) {
	suite, err := workloads.Suite(workloads.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	w, err := workloads.ByName(suite, "H-Sort")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchClusterConfig()
	cfg.SlaveNodes = 1
	var meanErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Monitor.Multiplex = true
		muxedDS, err := core.CharacterizeSuite([]workloads.Workload{w}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Monitor.Multiplex = false
		exactDS, err := core.CharacterizeSuite([]workloads.Workload{w}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		muxed, exact := muxedDS.Rows[0], exactDS.Rows[0]
		sum, n := 0.0, 0
		for j := range exact {
			if exact[j] != 0 {
				d := (muxed[j] - exact[j]) / exact[j]
				if d < 0 {
					d = -d
				}
				sum += d
				n++
			}
		}
		meanErr = sum / float64(n)
	}
	emit(b, "ablation_multiplexing",
		fmt.Sprintf("mean relative metric error from PMC multiplexing=%.4f\n", meanErr))
}

// BenchmarkAblation_SubsetQuality compares the two representative
// policies on subset quality: how well the weighted subset predicts the
// full suite's mean metrics, and how far workloads sit from their
// representatives.
func BenchmarkAblation_SubsetQuality(b *testing.B) {
	_, an, _ := benchData(b)
	var qn, qf *core.SubsetQuality
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		qn, err = an.EvaluateSubset(an.NearestReps)
		if err != nil {
			b.Fatal(err)
		}
		qf, err = an.EvaluateSubset(an.FarthestReps)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, "ablation_subset_quality", fmt.Sprintf(
		"policy   weighted-mean-error  mean-approx-dist  max-approx-dist\n"+
			"nearest  %.4f               %.3f             %.3f\n"+
			"farthest %.4f               %.3f             %.3f\n",
		qn.WeightedMeanError, qn.MeanApproximationDistance, qn.MaxApproximationDistance,
		qf.WeightedMeanError, qf.MeanApproximationDistance, qf.MaxApproximationDistance))
}

// BenchmarkAblation_HierarchicalVsKMeans selects 7 representatives by
// cutting the dendrogram (the paper's §VI-B alternative reading of
// Fig. 1) and compares the pick against the K-means route.
func BenchmarkAblation_HierarchicalVsKMeans(b *testing.B) {
	_, an, _ := benchData(b)
	var reps []core.Representative
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		reps, err = an.HierarchicalRepresentatives(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	var names []string
	for _, r := range reps {
		names = append(names, fmt.Sprintf("%s(%d)", r.Workload, r.ClusterSize))
	}
	emit(b, "ablation_hier_vs_kmeans", fmt.Sprintf(
		"hierarchical cut at K=7 boundary reps: %v\nk-means (BIC K=%d) boundary reps: %v\n",
		names, an.KBest.K, an.SubsetNames()))
}

// --- Substrate microbenchmarks ---

// BenchmarkPCA45Metrics measures the statistical core (z-score +
// covariance + Jacobi eigendecomposition + scores) on the 32×45 matrix.
func BenchmarkPCA45Metrics(b *testing.B) {
	ds, _, _ := benchData(b)
	m := ds.Matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit, err := pca.Fit(m)
		if err != nil {
			b.Fatal(err)
		}
		_ = fit.KaiserComponents()
	}
}

// BenchmarkMetricVector measures deriving the 45 Table II metrics from a
// raw event-count vector.
func BenchmarkMetricVector(b *testing.B) {
	var c event.Counts
	for i := range c {
		c[i] = uint64(i * 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = perf.MetricVector(&c)
	}
}

// BenchmarkHierarchicalClustering measures the agglomerative clustering of
// the 32 workloads on their PC scores.
func BenchmarkHierarchicalClustering(b *testing.B) {
	_, an, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hier.Cluster(an.Scores, hier.Single); err != nil {
			b.Fatal(err)
		}
	}
}
