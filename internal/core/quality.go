package core

import (
	"fmt"
	"math"

	"repro/internal/num/stat"
)

// SubsetQuality quantifies how well a representative set stands in for
// the full suite — the property the paper's subsetting is meant to
// preserve ("a well selected subset can reduce workload redundancy while
// keeping representativity", §VI). Two complementary views:
//
//   - WeightedMeanError: each representative stands in for its whole
//     cluster (weight = cluster size); compare the weighted subset mean
//     of every metric against the full-suite mean, as a relative error.
//     This is how a subset is used to predict suite-level behaviour.
//
//   - MeanApproximationDistance: mean z-scored metric-space distance from
//     each workload to its cluster's representative — how far any single
//     workload is from the workload that "speaks for it" (Eeckhout et
//     al.'s interpolation argument, cited in §VI-B).
type SubsetQuality struct {
	WeightedMeanError         float64 // mean over metrics of |subset − suite|/max(|suite|, ε)
	PerMetricError            []float64
	MeanApproximationDistance float64
	MaxApproximationDistance  float64
}

// EvaluateSubset measures the quality of a representative set produced by
// this analysis (either NearestReps or FarthestReps, or any set with one
// representative per cluster).
func (a *Analysis) EvaluateSubset(reps []Representative) (*SubsetQuality, error) {
	if len(reps) != a.KBest.K {
		return nil, fmt.Errorf("core: %d representatives for %d clusters", len(reps), a.KBest.K)
	}
	ds := a.Dataset
	nm := len(ds.Metrics)
	n := len(ds.Rows)

	repOf := make([]int, a.KBest.K)
	for _, r := range reps {
		if r.Cluster < 0 || r.Cluster >= a.KBest.K {
			return nil, fmt.Errorf("core: representative cluster %d out of range", r.Cluster)
		}
		if r.Index < 0 || r.Index >= n {
			return nil, fmt.Errorf("core: representative index %d out of range", r.Index)
		}
		repOf[r.Cluster] = r.Index
	}

	q := &SubsetQuality{PerMetricError: make([]float64, nm)}

	// Weighted subset mean vs full-suite mean, per metric.
	total := 0.0
	for j := 0; j < nm; j++ {
		suiteMean := 0.0
		for i := 0; i < n; i++ {
			suiteMean += ds.Rows[i][j]
		}
		suiteMean /= float64(n)

		subsetMean := 0.0
		for c := 0; c < a.KBest.K; c++ {
			subsetMean += float64(ds.Rows[repOf[c]][j] * float64(a.KBest.Sizes[c]))
		}
		subsetMean /= float64(n)

		denom := math.Abs(suiteMean)
		if denom < 1e-12 {
			denom = 1e-12
		}
		e := math.Abs(subsetMean-suiteMean) / denom
		q.PerMetricError[j] = e
		total += e
	}
	q.WeightedMeanError = total / float64(nm)

	// Approximation distance in z-scored metric space.
	zs := stat.ZScoreColumns(ds.Matrix())
	sum, max := 0.0, 0.0
	for i := 0; i < n; i++ {
		rep := repOf[a.KBest.Assign[i]]
		d := 0.0
		for j := 0; j < nm; j++ {
			diff := zs.Normalized.At(i, j) - zs.Normalized.At(rep, j)
			d += float64(diff * diff)
		}
		d = math.Sqrt(d)
		sum += d
		if d > max {
			max = d
		}
	}
	q.MeanApproximationDistance = sum / float64(n)
	q.MaxApproximationDistance = max
	return q, nil
}

// HierarchicalRepresentatives selects k representatives from the
// dendrogram instead of from K-means: the tree is cut into k flat
// clusters (the paper's "draw a vertical line" reading of Fig. 1, §VI-B)
// and within each cluster the workload farthest from the cluster's
// centroid in PC space is chosen (the boundary policy the paper prefers).
func (a *Analysis) HierarchicalRepresentatives(k int) ([]Representative, error) {
	n := len(a.Dataset.Rows)
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: k=%d out of [1,%d]", k, n)
	}
	assign := a.Dendrogram.CutK(k)

	// Cluster centroids in PC space.
	_, dims := a.Scores.Dims()
	centroids := make([][]float64, k)
	sizes := make([]int, k)
	for c := range centroids {
		centroids[c] = make([]float64, dims)
	}
	for i, c := range assign {
		sizes[c]++
		for j := 0; j < dims; j++ {
			centroids[c][j] += a.Scores.At(i, j)
		}
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(sizes[c])
		}
	}

	reps := make([]Representative, k)
	best := make([]float64, k)
	for c := range reps {
		reps[c] = Representative{Cluster: c, Index: -1}
		best[c] = -1
	}
	for i, c := range assign {
		d := 0.0
		for j := 0; j < dims; j++ {
			diff := a.Scores.At(i, j) - centroids[c][j]
			d += float64(diff * diff)
		}
		if d > best[c] {
			best[c] = d
			reps[c] = Representative{
				Cluster:     c,
				Index:       i,
				Workload:    a.Dataset.Labels[i],
				ClusterSize: sizes[c],
			}
		}
	}
	return reps, nil
}
