// Package core implements the paper's methodology end to end:
//
//  1. Characterize — run the 32 BigDataBench workloads on the simulated
//     five-node cluster and collect the 45 Table II metrics per workload
//     (§III, §IV).
//  2. Analyze — z-score normalize, PCA with Kaiser's criterion,
//     hierarchical clustering for the similarity study (§V), K-means with
//     BIC-selected K for redundancy removal, and representative selection
//     by both of the paper's policies (§VI).
//
// Each stage is exposed separately so a custom workload suite (or an
// externally measured metric matrix) can be pushed through the same
// analysis — the library's generalization beyond BigDataBench.
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/cluster/hier"
	"repro/internal/cluster/kmeans"
	"repro/internal/num/mat"
	"repro/internal/num/pca"
)

// Stage identifies one pipeline stage for progress reporting.
type Stage string

// The pipeline stages, in execution order.
const (
	StageCharacterize Stage = "characterize"
	StagePCA          Stage = "pca"
	StageHierarchical Stage = "hierarchical"
	StageKMeans       Stage = "kmeans"
	StageSelect       Stage = "select"
)

// Progress receives pipeline progress events: every stage transition is
// reported once with done=0, and during StageCharacterize each completed
// grid cell additionally reports (done, total) cell counts. Callbacks may
// arrive from worker goroutines concurrently and must return quickly.
type Progress func(stage Stage, done, total int)

func (p Progress) stage(s Stage) {
	if p != nil {
		p(s, 0, 0)
	}
}

// Dataset is a labeled workload×metric matrix — the output of
// characterization and the input of analysis.
type Dataset struct {
	Labels  []string
	Metrics []string // column names, Table II order for the standard run
	Rows    [][]float64
}

// Validate checks the dataset's shape.
func (d *Dataset) Validate() error {
	if len(d.Rows) != len(d.Labels) {
		return fmt.Errorf("core: %d rows but %d labels", len(d.Rows), len(d.Labels))
	}
	if len(d.Rows) < 2 {
		return fmt.Errorf("core: need ≥2 workloads, got %d", len(d.Rows))
	}
	for i, r := range d.Rows {
		if len(r) != len(d.Metrics) {
			return fmt.Errorf("core: row %d has %d metrics, want %d", i, len(r), len(d.Metrics))
		}
	}
	return nil
}

// Matrix returns the dataset as a dense matrix.
func (d *Dataset) Matrix() *mat.Dense { return mat.FromRows(d.Rows) }

// Characterize runs the full suite on the simulated cluster.
func Characterize(suiteCfg workloads.Config, clusterCfg cluster.Config) (*Dataset, error) {
	suite, err := workloads.Suite(suiteCfg)
	if err != nil {
		return nil, err
	}
	return CharacterizeSuite(suite, clusterCfg)
}

// CharacterizeSuite measures an arbitrary workload list.
func CharacterizeSuite(suite []workloads.Workload, clusterCfg cluster.Config) (*Dataset, error) {
	return CharacterizeSuiteCtx(context.Background(), suite, clusterCfg, nil)
}

// CharacterizeSuiteCtx is CharacterizeSuite with cooperative cancellation
// and per-cell progress reporting (see Progress). It is the measurement
// grid (CharacterizeObservationsCtx) followed by the one node- then
// run-averaging reduction (ObservationMatrix.Reduce); rows and labels
// come out in suite order.
func CharacterizeSuiteCtx(ctx context.Context, suite []workloads.Workload, clusterCfg cluster.Config, progress Progress) (*Dataset, error) {
	om, err := CharacterizeObservationsCtx(ctx, suite, clusterCfg, progress)
	if err != nil {
		return nil, err
	}
	return om.Reduce()
}

// PCSelection chooses how many principal components to keep.
type PCSelection int

const (
	// Kaiser keeps components with eigenvalue ≥ 1 (the paper's rule).
	Kaiser PCSelection = iota
	// VarianceThreshold keeps the smallest prefix reaching
	// AnalysisConfig.VarianceFrac of total variance (ablation).
	VarianceThreshold
)

// AnalysisConfig controls the statistical pipeline.
type AnalysisConfig struct {
	PCSelection  PCSelection
	VarianceFrac float64 // used by VarianceThreshold (default 0.9)

	Linkage hier.Linkage // default Single (the paper's choice)

	KMin, KMax int           // BIC scan range (defaults 2..12)
	KMeans     kmeans.Config // seeding configuration

	// Parallelism bounds concurrency in the analysis stage (the BIC K
	// scan and K-means restarts); 0 means GOMAXPROCS. It is forwarded to
	// KMeans.Parallelism unless that is set explicitly. Results are
	// identical at every setting.
	Parallelism int
}

// DefaultAnalysis returns the paper's settings.
func DefaultAnalysis() AnalysisConfig {
	return AnalysisConfig{
		PCSelection:  Kaiser,
		VarianceFrac: 0.9,
		Linkage:      hier.Single,
		KMin:         2,
		KMax:         12,
		KMeans:       kmeans.Config{Restarts: 16, Seed: 7},
	}
}

// Representative is one selected workload.
type Representative struct {
	Cluster     int
	Workload    string
	Index       int // row index in the dataset
	ClusterSize int
}

// Analysis is the full §V–§VI result.
type Analysis struct {
	Dataset *Dataset

	PCA       *pca.Result
	NumPCs    int
	Variance  float64    // fraction retained by NumPCs
	Scores    *mat.Dense // workloads × NumPCs
	ScoreRows [][]float64

	Dendrogram *hier.Dendrogram

	KBest *kmeans.Result
	KAll  []*kmeans.Result

	// Representatives under the two §VI-B policies.
	NearestReps  []Representative
	FarthestReps []Representative
	// MaxLinkage distance among each representative set (Table V col 3).
	NearestMaxLinkage  float64
	FarthestMaxLinkage float64
}

// Analyze runs normalization, PCA, hierarchical clustering, BIC-driven
// K-means and representative selection on a dataset.
func Analyze(ds *Dataset, cfg AnalysisConfig) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), ds, cfg, nil)
}

// AnalyzeCtx is Analyze with cooperative cancellation (checked between
// stages) and stage-transition progress reporting.
func AnalyzeCtx(ctx context.Context, ds *Dataset, cfg AnalysisConfig, progress Progress) (*Analysis, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.KMin == 0 && cfg.KMax == 0 {
		cfg.KMin, cfg.KMax = 2, 12
	}
	if cfg.KMin < 1 || cfg.KMax < cfg.KMin {
		return nil, fmt.Errorf("core: invalid K range [%d,%d]", cfg.KMin, cfg.KMax)
	}
	if cfg.VarianceFrac == 0 {
		cfg.VarianceFrac = 0.9
	}
	if cfg.KMeans.Parallelism == 0 {
		cfg.KMeans.Parallelism = cfg.Parallelism
	}

	progress.stage(StagePCA)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fit, err := pca.Fit(ds.Matrix())
	if err != nil {
		return nil, err
	}
	var numPCs int
	switch cfg.PCSelection {
	case Kaiser:
		numPCs = fit.KaiserComponents()
	case VarianceThreshold:
		numPCs = fit.ComponentsForVariance(cfg.VarianceFrac)
	default:
		return nil, fmt.Errorf("core: unknown PC selection %d", cfg.PCSelection)
	}
	if numPCs > len(ds.Rows) {
		numPCs = len(ds.Rows)
	}
	scores := fit.ScoresK(numPCs)

	progress.stage(StageHierarchical)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dend, err := hier.Cluster(scores, cfg.Linkage)
	if err != nil {
		return nil, err
	}
	if err := dend.SetLabels(ds.Labels); err != nil {
		return nil, err
	}

	progress.stage(StageKMeans)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kmax := cfg.KMax
	if kmax > len(ds.Rows) {
		kmax = len(ds.Rows)
	}
	best, all, err := kmeans.BestK(scores, cfg.KMin, kmax, cfg.KMeans)
	if err != nil {
		return nil, err
	}
	progress.stage(StageSelect)

	an := &Analysis{
		Dataset:    ds,
		PCA:        fit,
		NumPCs:     numPCs,
		Variance:   fit.ExplainedVariance(numPCs),
		Scores:     scores,
		Dendrogram: dend,
		KBest:      best,
		KAll:       all,
	}
	an.ScoreRows = make([][]float64, len(ds.Rows))
	for i := range ds.Rows {
		an.ScoreRows[i] = scores.Row(i)
	}

	near := best.NearestToCenter(scores)
	far := best.FarthestFromCenter(scores)
	for c := 0; c < best.K; c++ {
		an.NearestReps = append(an.NearestReps, Representative{
			Cluster: c, Workload: ds.Labels[near[c]], Index: near[c], ClusterSize: best.Sizes[c],
		})
		an.FarthestReps = append(an.FarthestReps, Representative{
			Cluster: c, Workload: ds.Labels[far[c]], Index: far[c], ClusterSize: best.Sizes[c],
		})
	}
	an.NearestMaxLinkage = dend.MaxPairwiseCophenetic(near)
	an.FarthestMaxLinkage = dend.MaxPairwiseCophenetic(far)
	return an, nil
}

// Run executes the complete paper pipeline with the given configurations.
func Run(suiteCfg workloads.Config, clusterCfg cluster.Config, acfg AnalysisConfig) (*Analysis, error) {
	return RunCtx(context.Background(), suiteCfg, clusterCfg, acfg, nil)
}

// RunCtx is Run with cooperative cancellation and progress reporting
// threaded through both pipeline halves.
func RunCtx(ctx context.Context, suiteCfg workloads.Config, clusterCfg cluster.Config, acfg AnalysisConfig, progress Progress) (*Analysis, error) {
	suite, err := workloads.Suite(suiteCfg)
	if err != nil {
		return nil, err
	}
	ds, err := CharacterizeSuiteCtx(ctx, suite, clusterCfg, progress)
	if err != nil {
		return nil, err
	}
	return AnalyzeCtx(ctx, ds, acfg, progress)
}

// StackOf reports which engine prefix a workload label carries.
func StackOf(label string) string {
	switch {
	case strings.HasPrefix(label, "H-"):
		return "Hadoop"
	case strings.HasPrefix(label, "S-"):
		return "Spark"
	default:
		return ""
	}
}

// SubsetNames returns the representative workload names under the
// farthest-from-centroid policy — the paper's released simulator-version
// subset.
func (a *Analysis) SubsetNames() []string {
	out := make([]string, len(a.FarthestReps))
	for i, r := range a.FarthestReps {
		out[i] = r.Workload
	}
	return out
}
