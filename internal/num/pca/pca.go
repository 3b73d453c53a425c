// Package pca implements principal component analysis as used by the paper
// (§III-C): metrics are z-score normalized, the covariance (equivalently,
// correlation) matrix is eigendecomposed, and Kaiser's criterion keeps the
// components with eigenvalue ≥ 1.
package pca

import (
	"fmt"
	"math"

	"repro/internal/num/mat"
	"repro/internal/num/stat"
)

// Result is a fitted PCA model.
type Result struct {
	// Eigenvalues in descending order, one per component (== #features).
	Eigenvalues []float64
	// Components is features×features; column j is the j-th principal axis.
	Components *mat.Dense
	// Scores is samples×features; row i is sample i projected onto all axes.
	Scores *mat.Dense
	// Loadings is features×features; Loadings[m][j] is the weight of
	// original metric m in component j scaled by sqrt(eigenvalue), the
	// conventional "factor loading" the paper plots in Fig. 4.
	Loadings *mat.Dense
	// Norm carries the z-score transform fitted on the input so new
	// samples can be projected consistently.
	Norm *stat.ZScoreResult
}

// Fit normalizes the samples×features input to z-scores, eigendecomposes
// the covariance of the normalized data (the correlation matrix of the raw
// data), and returns the full decomposition. At least two samples and one
// feature are required.
func Fit(data *mat.Dense) (*Result, error) {
	rows, cols := data.Dims()
	if rows < 2 {
		return nil, fmt.Errorf("pca: need at least 2 samples, got %d", rows)
	}
	if cols < 1 {
		return nil, fmt.Errorf("pca: need at least 1 feature, got %d", cols)
	}

	norm := stat.ZScoreColumns(data)
	cov := stat.CovarianceMatrix(norm.Normalized)
	eig, err := mat.SymEigen(cov, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}

	// Clamp tiny negative eigenvalues introduced by floating point.
	vals := make([]float64, len(eig.Values))
	for i, v := range eig.Values {
		if v < 0 && v > -1e-10 {
			v = 0
		}
		vals[i] = v
	}

	scores := mat.Mul(norm.Normalized, eig.Vectors)

	loadings := mat.NewDense(cols, cols)
	for m := 0; m < cols; m++ {
		for j := 0; j < cols; j++ {
			loadings.Set(m, j, eig.Vectors.At(m, j)*math.Sqrt(math.Max(vals[j], 0)))
		}
	}

	return &Result{
		Eigenvalues: vals,
		Components:  eig.Vectors,
		Scores:      scores,
		Loadings:    loadings,
		Norm:        norm,
	}, nil
}

// KaiserComponents returns the number of components with eigenvalue ≥ 1
// (Kaiser's criterion, the paper's PC-selection rule). It never returns 0:
// if no eigenvalue reaches 1 (possible for nearly-degenerate data), the
// single largest component is kept.
func (r *Result) KaiserComponents() int {
	k := 0
	for _, v := range r.Eigenvalues {
		if v >= 1 {
			k++
		}
	}
	if k == 0 {
		k = 1
	}
	return k
}

// ComponentsForVariance returns the smallest number of leading components
// whose cumulative explained variance reaches frac (0 < frac ≤ 1).
func (r *Result) ComponentsForVariance(frac float64) int {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("pca: variance fraction %v out of (0,1]", frac))
	}
	total := 0.0
	for _, v := range r.Eigenvalues {
		total += v
	}
	if total == 0 {
		return 1
	}
	cum := 0.0
	for i, v := range r.Eigenvalues {
		cum += v
		if cum/total >= frac {
			return i + 1
		}
	}
	return len(r.Eigenvalues)
}

// ExplainedVariance returns the fraction of total variance captured by the
// first k components.
func (r *Result) ExplainedVariance(k int) float64 {
	if k < 0 || k > len(r.Eigenvalues) {
		panic(fmt.Sprintf("pca: k=%d out of range [0,%d]", k, len(r.Eigenvalues)))
	}
	total, kept := 0.0, 0.0
	for i, v := range r.Eigenvalues {
		total += v
		if i < k {
			kept += v
		}
	}
	if total == 0 {
		return 0
	}
	return kept / total
}

// ScoresK returns the samples×k matrix of scores restricted to the first
// k components — the representation the clustering stages consume.
func (r *Result) ScoresK(k int) *mat.Dense {
	rows, cols := r.Scores.Dims()
	if k < 1 || k > cols {
		panic(fmt.Sprintf("pca: k=%d out of range [1,%d]", k, cols))
	}
	out := mat.NewDense(rows, k)
	for i := 0; i < rows; i++ {
		for j := 0; j < k; j++ {
			out.Set(i, j, r.Scores.At(i, j))
		}
	}
	return out
}

// Project maps a raw (unnormalized) sample onto the first k principal
// components using the stored normalization.
func (r *Result) Project(sample []float64, k int) []float64 {
	z := r.Norm.Apply(sample)
	_, cols := r.Components.Dims()
	if k < 1 || k > cols {
		panic(fmt.Sprintf("pca: k=%d out of range [1,%d]", k, cols))
	}
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		s := 0.0
		for m := 0; m < len(z); m++ {
			// float64 rounds the product: no fused multiply-add (see mat).
			s += float64(z[m] * r.Components.At(m, j))
		}
		out[j] = s
	}
	return out
}

// DominantLoadings returns the indices of the metrics whose absolute
// loading on component pc is at least frac of that component's maximum
// absolute loading, split into positively and negatively dominating sets —
// the reading the paper performs on Fig. 4 to interpret PC1 and PC2.
func (r *Result) DominantLoadings(pc int, frac float64) (positive, negative []int) {
	rows, cols := r.Loadings.Dims()
	if pc < 0 || pc >= cols {
		panic(fmt.Sprintf("pca: component %d out of range [0,%d)", pc, cols))
	}
	maxAbs := 0.0
	for m := 0; m < rows; m++ {
		if a := math.Abs(r.Loadings.At(m, pc)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return nil, nil
	}
	thresh := frac * maxAbs
	for m := 0; m < rows; m++ {
		v := r.Loadings.At(m, pc)
		switch {
		case v >= thresh:
			positive = append(positive, m)
		case v <= -thresh:
			negative = append(negative, m)
		}
	}
	return positive, negative
}
