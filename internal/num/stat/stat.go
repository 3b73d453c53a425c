// Package stat provides the descriptive statistics and normalization used
// by the characterization pipeline: means, variances, z-score normalization
// (paper §III-C: "normalize metric values to a Gaussian distribution with
// mean equal to zero and standard deviation equal to one"), and Pearson
// correlation for the redundancy analysis.
//
// Products that feed a sum are written float64(x*y): the conversion rounds
// the product, so no architecture fuses it into a multiply-add, and every
// one computes the bits amd64 does.
package stat

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/num/mat"
)

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stat: Mean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n). It panics
// on an empty slice.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (divide by n-1).
// It panics if len(xs) < 2.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		panic("stat: SampleVariance requires at least two samples")
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stat: Median of empty slice")
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stat: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series. Constant series (zero variance) yield correlation 0 by convention
// here, since the pipeline treats constant metrics as uninformative.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stat: Pearson length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		panic("stat: Pearson of empty series")
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += float64(da * db)
		saa += float64(da * da)
		sbb += float64(db * db)
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// ZScoreResult carries the column means and standard deviations used to
// normalize a matrix, so the transform can be inverted or applied to new
// samples.
type ZScoreResult struct {
	Normalized *mat.Dense
	Means      []float64
	StdDevs    []float64
	// ConstantCols lists columns with zero variance. They are mapped to
	// all-zero columns (no information) rather than NaN.
	ConstantCols []int
}

// ZScoreColumns normalizes each column of m to mean 0 and population
// standard deviation 1. Columns with zero variance become all-zero.
func ZScoreColumns(m *mat.Dense) *ZScoreResult {
	rows, cols := m.Dims()
	out := mat.NewDense(rows, cols)
	res := &ZScoreResult{
		Normalized: out,
		Means:      make([]float64, cols),
		StdDevs:    make([]float64, cols),
	}
	for j := 0; j < cols; j++ {
		col := m.Col(j)
		mu := Mean(col)
		sd := StdDev(col)
		res.Means[j] = mu
		res.StdDevs[j] = sd
		if sd == 0 {
			res.ConstantCols = append(res.ConstantCols, j)
			continue // leave the column at zero
		}
		for i := 0; i < rows; i++ {
			out.Set(i, j, (col[i]-mu)/sd)
		}
	}
	return res
}

// Apply normalizes a new sample (one value per column) with the stored
// means and standard deviations.
func (z *ZScoreResult) Apply(sample []float64) []float64 {
	if len(sample) != len(z.Means) {
		panic(fmt.Sprintf("stat: Apply sample length %d, want %d", len(sample), len(z.Means)))
	}
	out := make([]float64, len(sample))
	for j, v := range sample {
		if z.StdDevs[j] == 0 {
			out[j] = 0
			continue
		}
		out[j] = (v - z.Means[j]) / z.StdDevs[j]
	}
	return out
}

// CovarianceMatrix returns the population covariance matrix (features ×
// features) of a samples×features matrix.
func CovarianceMatrix(m *mat.Dense) *mat.Dense {
	rows, cols := m.Dims()
	if rows < 2 {
		panic("stat: CovarianceMatrix requires at least two samples")
	}
	means := make([]float64, cols)
	for j := 0; j < cols; j++ {
		means[j] = Mean(m.Col(j))
	}
	// Upper triangle, accumulated row by row in sample order.
	cov := mat.NewDense(cols, cols)
	for i := 0; i < rows; i++ {
		row := m.RowView(i)
		for a, x := range row {
			da := x - means[a]
			if da == 0 {
				continue
			}
			crow := cov.RowView(a)
			for b := a; b < cols; b++ {
				crow[b] += float64(da * (row[b] - means[b]))
			}
		}
	}
	inv := 1 / float64(rows)
	for a := 0; a < cols; a++ {
		crow := cov.RowView(a)
		for b := a; b < cols; b++ {
			v := crow[b] * inv
			crow[b] = v
			cov.Set(b, a, v)
		}
	}
	return cov
}

// CorrelationMatrix returns the Pearson correlation matrix of the columns
// of a samples×features matrix. Constant columns correlate 0 with
// everything and 1 with themselves.
func CorrelationMatrix(m *mat.Dense) *mat.Dense {
	_, cols := m.Dims()
	corr := mat.NewDense(cols, cols)
	columns := make([][]float64, cols)
	for j := 0; j < cols; j++ {
		columns[j] = m.Col(j)
	}
	for a := 0; a < cols; a++ {
		corr.Set(a, a, 1)
		for b := a + 1; b < cols; b++ {
			r := Pearson(columns[a], columns[b])
			corr.Set(a, b, r)
			corr.Set(b, a, r)
		}
	}
	return corr
}

// Summary holds the five-number-style description of a series.
type Summary struct {
	N             int
	Mean, StdDev  float64
	Min, Med, Max float64
}

// Describe summarizes xs.
func Describe(xs []float64) Summary {
	min, max := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    min,
		Med:    Median(xs),
		Max:    max,
	}
}
