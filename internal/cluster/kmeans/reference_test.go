package kmeans

import (
	"math"

	"repro/internal/num/mat"
	"repro/internal/rng"
)

// runOnceReference is the plain Lloyd restart: it seeds at k itself,
// every iteration scans every point against every center, and its exact
// pass gets no bounds, so it scans every point too. It is retained as the
// oracle the bound-pruned runOnce, started from a prefix of a larger
// seeding, is tested against (the two must agree bit for bit) and is not
// used on any production path.
func runOnceReference(points *mat.Dense, xnorm []float64, k, maxIter int, rg *rng.RNG) *Result {
	n, d := points.Dims()
	centers := seedPlusPlus(points, k, rg)
	cnorm := make([]float64, k)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	crows := make([][]float64, k)
	for c := range crows {
		crows[c] = centers.RowView(c)
	}
	sums := make([]float64, k*d)
	counts := make([]int, k)
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		changed := false
		for c, crow := range crows {
			cnorm[c] = mat.Dot(crow, crow)
		}
		for i := 0; i < n; i++ {
			row := points.RowView(i)
			bestC, bestD := -1, math.Inf(1)
			for c := 0; c < k; c++ {
				dd := xnorm[i] + cnorm[c] - 2*mat.Dot(row, crows[c])
				if dd < bestD {
					bestD = dd
					bestC = c
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		updateCenters(points, assign, centers, crows, sums, counts)
	}
	res, _ := finish(points, centers, crows, assign, iters, nil)
	return res
}
