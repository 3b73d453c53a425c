package core

import (
	"context"
	"fmt"

	"repro/internal/bigdata/cluster"
	"repro/internal/bigdata/workloads"
	"repro/internal/perf"
)

// ObservationMatrix is the raw output of the characterization stage
// before the node/run reduction: one 45-metric vector per grid cell,
// indexed [workload][run][node]. It is the unit of work exchanged between
// a shard coordinator and its workers — a worker measures a sub-grid
// (a workload subset over a node range) and a coordinator re-assembles
// sub-matrices into the full grid, so the split point of the pipeline is
// exactly here: CharacterizeObservationsCtx produces matrices,
// AnalyzeObservationsCtx consumes the re-assembled one.
type ObservationMatrix struct {
	Labels  []string
	Metrics []string
	// Cells[w][run][node] is the metric vector of one grid cell; node
	// indexes are relative to NodeOffset.
	Cells [][][][]float64
	// NodeOffset is the absolute index of Cells' first node column (see
	// cluster.Config.NodeOffset).
	NodeOffset int
}

// Validate checks shape consistency: every workload has the same number
// of runs, every run the same number of nodes, and every cell a vector of
// len(Metrics).
func (om *ObservationMatrix) Validate() error {
	if len(om.Cells) != len(om.Labels) {
		return fmt.Errorf("core: %d cell rows but %d labels", len(om.Cells), len(om.Labels))
	}
	if len(om.Labels) == 0 {
		return fmt.Errorf("core: empty observation matrix")
	}
	if om.NodeOffset < 0 {
		return fmt.Errorf("core: negative node offset %d", om.NodeOffset)
	}
	runs, nodes := len(om.Cells[0]), 0
	if runs > 0 {
		nodes = len(om.Cells[0][0])
	}
	if runs == 0 || nodes == 0 {
		return fmt.Errorf("core: observation matrix has no runs or nodes")
	}
	for w, perRun := range om.Cells {
		if len(perRun) != runs {
			return fmt.Errorf("core: workload %d has %d runs, want %d", w, len(perRun), runs)
		}
		for r, perNode := range perRun {
			if len(perNode) != nodes {
				return fmt.Errorf("core: workload %d run %d has %d nodes, want %d", w, r, len(perNode), nodes)
			}
			for n, vec := range perNode {
				if len(vec) != len(om.Metrics) {
					return fmt.Errorf("core: cell [%d][%d][%d] has %d metrics, want %d",
						w, r, n, len(vec), len(om.Metrics))
				}
			}
		}
	}
	return nil
}

// Runs returns the run-axis extent.
func (om *ObservationMatrix) Runs() int { return len(om.Cells[0]) }

// Nodes returns the node-axis extent.
func (om *ObservationMatrix) Nodes() int { return len(om.Cells[0][0]) }

// Reduce folds the matrix into a Dataset via the canonical node- then
// run-averaging (cluster.ReduceCells). It is the pipeline's only
// reduction: CharacterizeSuiteCtx ends here, and so does a coordinator's
// re-assembled matrix, which is why both answer bit for bit alike.
func (om *ObservationMatrix) Reduce() (*Dataset, error) {
	if err := om.Validate(); err != nil {
		return nil, err
	}
	rows := make([][]float64, len(om.Cells))
	for w, perRun := range om.Cells {
		rows[w] = cluster.ReduceCells(perRun)
	}
	return &Dataset{Labels: om.Labels, Metrics: om.Metrics, Rows: rows}, nil
}

// CharacterizeObservationsCtx is the characterize-only half of the
// pipeline: it runs the measurement grid and returns the raw observation
// matrix without reducing or analyzing. Shard workers run this over their
// sub-grid; a single process running it over the full grid and feeding
// the result to AnalyzeObservationsCtx reproduces RunCtx exactly.
func CharacterizeObservationsCtx(ctx context.Context, suite []workloads.Workload, clusterCfg cluster.Config, progress Progress) (*ObservationMatrix, error) {
	progress.stage(StageCharacterize)
	var cp cluster.Progress
	if progress != nil {
		cp = func(done, total int) { progress(StageCharacterize, done, total) }
	}
	cells, err := cluster.FillCellsCtx(ctx, suite, clusterCfg, nil, cp)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(suite))
	for i, w := range suite {
		labels[i] = w.Name
	}
	return &ObservationMatrix{
		Labels:     labels,
		Metrics:    perf.MetricNames(),
		Cells:      cells,
		NodeOffset: clusterCfg.NodeOffset,
	}, nil
}

// AnalyzeObservationsCtx is the analyze half of the split pipeline: it
// reduces a (re-assembled) observation matrix to the workload×metric
// dataset and runs the §V–§VI statistical pipeline on it.
func AnalyzeObservationsCtx(ctx context.Context, om *ObservationMatrix, cfg AnalysisConfig, progress Progress) (*Analysis, error) {
	ds, err := om.Reduce()
	if err != nil {
		return nil, err
	}
	return AnalyzeCtx(ctx, ds, cfg, progress)
}
