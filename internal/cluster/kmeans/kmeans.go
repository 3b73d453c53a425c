// Package kmeans implements Lloyd's K-means with k-means++ seeding and the
// Bayesian Information Criterion in the Pelleg–Moore X-means formulation
// that the paper uses to pick K (§VI-A, Equations 1–3).
package kmeans

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/num/mat"
	"repro/internal/rng"
)

// Result is a fitted K-means clustering.
type Result struct {
	K          int
	Assign     []int      // cluster index per point
	Centers    *mat.Dense // K×dims
	Sizes      []int      // points per cluster
	Inertia    float64    // sum of squared distances to assigned centers
	Iterations int        // Lloyd iterations until convergence
	BIC        float64    // Pelleg–Moore BIC score of this clustering
}

// Config controls the algorithm.
type Config struct {
	MaxIterations int    // Lloyd iteration cap (default 100)
	Restarts      int    // independent seedings, best inertia wins (default 8)
	Seed          uint64 // RNG seed for k-means++ (deterministic)
	// Parallelism bounds concurrent restarts in Run, and concurrent
	// seedings and K values in BestK (0 = GOMAXPROCS). Results are
	// identical at every setting: each restart has its own seed-derived
	// RNG and the winner is picked deterministically (lowest inertia, ties
	// broken by the lowest restart index / lowest K).
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 100
	}
	if c.Restarts <= 0 {
		c.Restarts = 8
	}
	return c
}

// parallelism resolves a Parallelism setting against GOMAXPROCS and an
// upper bound on useful workers.
func parallelism(p, bound int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > bound {
		p = bound
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Run clusters the rows of points into k clusters. Restarts execute
// concurrently (bounded by Config.Parallelism), each with its own
// seed-derived RNG; the winner is the lowest inertia with ties broken by
// the lowest restart index, so the result is deterministic for a fixed
// Config.Seed at any parallelism.
func Run(points *mat.Dense, k int, cfg Config) (*Result, error) {
	n, _ := points.Dims()
	if k < 1 {
		return nil, fmt.Errorf("kmeans: k=%d must be ≥ 1", k)
	}
	if k > n {
		return nil, fmt.Errorf("kmeans: k=%d exceeds point count %d", k, n)
	}
	cfg = cfg.withDefaults()
	return runSeeded(points, norms(points), seedRestarts(points, k, cfg), k, cfg), nil
}

// norms returns every row's squared norm. Restarts share them read-only:
// the assignment loop computes ‖x−c‖² as ‖x‖²+‖c‖²−2x·c.
func norms(points *mat.Dense) []float64 {
	n, _ := points.Dims()
	xnorm := make([]float64, n)
	for i := range xnorm {
		row := points.RowView(i)
		xnorm[i] = mat.Dot(row, row)
	}
	return xnorm
}

// seedRestarts returns every restart's k-means++ seeding at k centers,
// computed concurrently (bounded by Config.Parallelism). Restart r draws
// from rng.New(Seed + r·0x9E3779B97F4A7C15), which does not depend on k,
// and seedPlusPlus draws once per center in order, so the first k′ rows
// of a seeding at k are the restart's seeding at k′ ≤ k, bit for bit
// (TestSeedPrefix). BestK therefore seeds once, at its largest K.
func seedRestarts(points *mat.Dense, k int, cfg Config) []*mat.Dense {
	seeds := make([]*mat.Dense, cfg.Restarts)
	each(cfg.Restarts, cfg.Parallelism, func(r int) {
		seeds[r] = seedPlusPlus(points, k, rng.New(cfg.Seed+uint64(r)*0x9E3779B97F4A7C15))
	})
	return seeds
}

// runSeeded executes one restart per seeding, from its first k rows,
// bounded by Config.Parallelism, and returns the winner with its BIC.
func runSeeded(points *mat.Dense, xnorm []float64, seeds []*mat.Dense, k int, cfg Config) *Result {
	results := make([]*Result, len(seeds))
	each(len(seeds), cfg.Parallelism, func(r int) {
		results[r] = runOnce(points, xnorm, seeds[r], k, cfg.MaxIterations)
	})
	best := results[0]
	for _, res := range results[1:] {
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	best.BIC = BIC(points, best)
	return best
}

// each calls f(0), …, f(n−1) on at most par goroutines (0 = GOMAXPROCS),
// which take indices in order from a shared counter, and returns once
// every call has. With one worker it calls them in order itself.
func each(n, par int, f func(i int)) {
	par = parallelism(par, n)
	if par <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// runOnce is one restart: Lloyd iterations from the first k rows of its
// k-means++ seeding, then an exact final assignment. Rows of points and
// centers are read in place (points and seed are shared read-only with
// concurrent restarts; centers is this restart's own copy), and all
// scratch is allocated once, so an iteration allocates nothing.
//
// The assignment step skips a point whose Hamerly bounds prove that a
// full scan would return its current center again, so every result bit
// equals that of scanning every point each iteration (DESIGN.md §3).
func runOnce(points *mat.Dense, xnorm []float64, seed *mat.Dense, k, maxIter int) *Result {
	n, d := points.Dims()
	centers := mat.NewDense(k, d)
	for c := 0; c < k; c++ {
		centers.SetRow(c, seed.RowView(c))
	}
	cnorm := make([]float64, k)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	crows := make([][]float64, k) // views of centers' rows, which update in place
	for c := range crows {
		crows[c] = centers.RowView(c)
	}
	sums := make([]float64, k*d) // row-major k×d, like centers
	counts := make([]int, k)

	// Per point, upper bounds its distance to its center and lower its
	// distance to every other center; per center, near is the distance to
	// its nearest other center and drift how far the last update moved it.
	// prev holds the centers before an update.
	upper, lower := make([]float64, n), make([]float64, n)
	near, drift := make([]float64, k), make([]float64, k)
	prev := make([]float64, k*d)
	// rho bounds the rounding error of one computed ‖x‖²+‖c‖²−2x·c
	// relative to ‖x‖²+max‖c‖²; tau is the skip test's guard, 10³ times
	// the error it must cover (unit roundoff 2⁻⁵³).
	rho := float64(2*d+8) * 0x1p-53
	tau := 1e3 * float64(24*maxIter+28*d+160) * 0x1p-53
	cmax := 0.0 // largest ‖c‖² so far; NaN sticks and stops all skipping
	scans := 0

	iters, converged := 0, false
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		changed := false
		for c, crow := range crows {
			cnorm[c] = mat.Dot(crow, crow)
			cmax = max(cmax, cnorm[c])
			near[c] = math.Inf(1)
		}
		for c := range crows {
			for c2 := c + 1; c2 < k; c2++ {
				dc := mat.Distance(crows[c], crows[c2])
				near[c] = min(near[c], dc)
				near[c2] = min(near[c2], dc)
			}
		}
		for i := 0; i < n; i++ {
			scale := xnorm[i] + cmax
			if a := assign[i]; a >= 0 && settled(upper[i], lower[i], near[a], tau*scale) {
				continue
			}
			scans++
			p := nearest(points.RowView(i), xnorm[i], crows, cnorm)
			e := float64(rho * scale)
			upper[i] = math.Sqrt(float64(p.best + e))
			lower[i] = math.Sqrt(max(float64(p.second-e), 0))
			if assign[i] != p.c {
				assign[i] = p.c
				changed = true
			}
		}
		if !changed && iter > 0 {
			converged = true
			break
		}
		for c, crow := range crows {
			copy(prev[c*d:(c+1)*d], crow)
		}
		updateCenters(points, assign, centers, crows, sums, counts)
		maxDrift := 0.0
		for c, crow := range crows {
			drift[c] = mat.Distance(prev[c*d:(c+1)*d], crow)
			maxDrift = max(maxDrift, drift[c]) // a NaN sticks
		}
		for i, a := range assign {
			upper[i] += drift[a]
			lower[i] -= maxDrift
		}
	}
	// After convergence the last assignment pass ran against the final
	// centers, so every bound, near and cmax hold for them. A restart
	// stopped by maxIter moved its centers after that pass: its near and
	// cmax are stale, and its exact pass scans every point.
	var b *bounds
	if converged {
		b = &bounds{xnorm: xnorm, upper: upper, lower: lower, near: near, cmax: cmax, tau: tau}
	}
	res, exactScans := finish(points, centers, crows, assign, iters, b)
	if scanHook != nil {
		scanHook(scans, n*iters, exactScans)
	}
	return res
}

// settled is the bound test: a point whose distance to its center is at
// most upper, and to any other center at least max(lower, near−upper),
// has that center as its strict nearest, with a squared-distance gap
// above tauScale to cover rounding. A NaN anywhere fails the test.
func settled(upper, lower, near, tauScale float64) bool {
	l := max(lower, near-upper)
	return l > upper && (l-upper)*(l+upper) > tauScale
}

// bounds is what a converged Lloyd loop hands finish: per point its
// bounds and squared norm, per center near, and the running cmax and the
// guard tau, all valid for the final centers.
type bounds struct {
	xnorm, upper, lower, near []float64
	cmax, tau                 float64
}

// scanHook, when non-nil, receives each restart's number of full
// assignment scans in the Lloyd loop, its point-iterations
// (n·Iterations) and the full scans of its exact pass. Tests set it to
// pin how much the bounds prune.
var scanHook func(scans, pointIters, exactScans int)

// pick is a full scan's outcome: the nearest center and the two smallest
// squared distances.
type pick struct {
	c            int
	best, second float64
}

// offer considers center c at squared distance dd. Strict < keeps the
// lowest index among equal distances, and a NaN is never picked.
func (p *pick) offer(c int, dd float64) {
	if dd < p.best {
		p.c, p.best, p.second = c, dd, p.best
	} else if dd < p.second {
		p.second = dd
	}
}

// nearest scans every center for the point row with squared norm xn,
// computing ‖x‖²+‖c‖²−2x·c (one dot product instead of a full
// difference-and-square pass per candidate center). Four centers share
// one pass over the row, each with its own accumulator summed in
// coordinate order exactly as mat.Dot sums, so every distance has the
// bits a per-center mat.Dot gives.
func nearest(row []float64, xn float64, crows [][]float64, cnorm []float64) pick {
	p := pick{c: -1, best: math.Inf(1), second: math.Inf(1)}
	k, c := len(crows), 0
	for ; c+4 <= k; c += 4 {
		c0, c1, c2, c3 := crows[c][:len(row)], crows[c+1][:len(row)], crows[c+2][:len(row)], crows[c+3][:len(row)]
		var s0, s1, s2, s3 float64
		for j, x := range row {
			s0 += float64(x * c0[j])
			s1 += float64(x * c1[j])
			s2 += float64(x * c2[j])
			s3 += float64(x * c3[j])
		}
		p.offer(c, xn+cnorm[c]-float64(2*s0))
		p.offer(c+1, xn+cnorm[c+1]-float64(2*s1))
		p.offer(c+2, xn+cnorm[c+2]-float64(2*s2))
		p.offer(c+3, xn+cnorm[c+3]-float64(2*s3))
	}
	for ; c < k; c++ {
		p.offer(c, xn+cnorm[c]-float64(2*mat.Dot(row, crows[c])))
	}
	return p
}

// updateCenters moves each center to its members' mean: per coordinate,
// the members' sum in point order, times the reciprocal count. An empty
// cluster is reseeded at the point farthest from its assigned center.
func updateCenters(points *mat.Dense, assign []int, centers *mat.Dense, crows [][]float64, sums []float64, counts []int) {
	n, d := points.Dims()
	clear(sums)
	clear(counts)
	for i := 0; i < n; i++ {
		c := assign[i]
		counts[c]++
		srow := sums[c*d : (c+1)*d]
		for j, v := range points.RowView(i) {
			srow[j] += v
		}
	}
	for c := range crows {
		if counts[c] == 0 {
			fi, fd := 0, -1.0
			for i := 0; i < n; i++ {
				dd := mat.SquaredDistance(points.RowView(i), crows[assign[i]])
				if dd > fd {
					fd = dd
					fi = i
				}
			}
			centers.SetRow(c, points.RowView(fi))
			continue
		}
		inv := 1 / float64(counts[c])
		srow := sums[c*d : (c+1)*d]
		crow := crows[c]
		for j := range crow {
			crow[j] = srow[j] * inv
		}
	}
}

// finish ends a restart whose Lloyd loop left assign and centers, and
// returns its result and the number of points the exact pass scanned.
//
// Final exact pass: recompute assignments with the direct squared
// distance, so reported results are free of the cached-norm
// formulation's cancellation error and every point provably sits with
// its nearest center. With the bounds of a converged loop (b non-nil), a
// point that passes the loop's skip test keeps its center unscanned: the
// test's margin also covers the direct distance's rounding (DESIGN.md
// §3). A rounding-induced flip can only happen when a point is within
// cancellation error of equidistant; if such flips would empty a cluster
// that Lloyd's repair kept populated, keep the Lloyd assignment
// wholesale — downstream consumers (representative selection) require
// clusters to stay non-empty, and either assignment differs only by
// ~1e-12 in inertia.
func finish(points *mat.Dense, centers *mat.Dense, crows [][]float64, assign []int, iters int, b *bounds) (*Result, int) {
	n, _ := points.Dims()
	k := len(crows)
	exact := make([]int, n)
	exactSizes := make([]int, k)
	exactInertia := 0.0
	scans := 0
	for i := 0; i < n; i++ {
		row := points.RowView(i)
		bestC, bestD := assign[i], 0.0
		if b != nil && settled(b.upper[i], b.lower[i], b.near[bestC], b.tau*(b.xnorm[i]+b.cmax)) {
			bestD = mat.SquaredDistance(row, crows[bestC])
		} else {
			scans++
			bestC, bestD = -1, math.Inf(1)
			for c := 0; c < k; c++ {
				dd := mat.SquaredDistance(row, crows[c])
				if dd < bestD {
					bestD = dd
					bestC = c
				}
			}
		}
		exact[i] = bestC
		exactSizes[bestC]++
		exactInertia += bestD
	}
	lloydSizes := make([]int, k)
	for _, c := range assign {
		lloydSizes[c]++
	}
	res := &Result{K: k, Assign: exact, Centers: centers, Sizes: exactSizes, Inertia: exactInertia, Iterations: iters}
	for c := 0; c < k; c++ {
		if lloydSizes[c] > 0 && exactSizes[c] == 0 {
			res.Assign, res.Sizes, res.Inertia = assign, lloydSizes, 0
			for i := 0; i < n; i++ {
				res.Inertia += mat.SquaredDistance(points.RowView(i), crows[assign[i]])
			}
			break
		}
	}
	return res, scans
}

// seedPlusPlus selects k initial centers with the k-means++ D² weighting.
func seedPlusPlus(points *mat.Dense, k int, rg *rng.RNG) *mat.Dense {
	n, d := points.Dims()
	centers := mat.NewDense(k, d)
	first := int(rg.Uint64n(uint64(n)))
	centers.SetRow(0, points.RowView(first))

	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = mat.SquaredDistance(points.RowView(i), centers.RowView(0))
	}
	for c := 1; c < k; c++ {
		total := 0.0
		for _, v := range d2 {
			total += v
		}
		var pick int
		if total == 0 {
			// All points coincide with chosen centers; pick uniformly.
			pick = int(rg.Uint64n(uint64(n)))
		} else {
			r := rg.Float64() * total
			cum := 0.0
			pick = n - 1
			for i, v := range d2 {
				cum += v
				if cum >= r {
					pick = i
					break
				}
			}
		}
		centers.SetRow(c, points.RowView(pick))
		crow := centers.RowView(c)
		for i := range d2 {
			dd := mat.SquaredDistance(points.RowView(i), crow)
			if dd < d2[i] {
				d2[i] = dd
			}
		}
	}
	return centers
}

// BIC computes the Bayesian Information Criterion of a clustering using
// the Pelleg–Moore formulation the paper reproduces as Equations 1–3:
//
//	BIC(D,K) = l(D|K) − (p_j/2)·log(R)
//
// with l(D|K) the maximum log-likelihood under an identical spherical
// Gaussian per cluster, R the number of points, and p_j = K + d·K the
// parameter count (K class probabilities − 1 plus K d-dimensional
// centroids; the paper states p_j = K + dK).
func BIC(points *mat.Dense, res *Result) float64 {
	n, d := points.Dims()
	R := float64(n)
	K := float64(res.K)
	dd := float64(d)

	// σ² — average variance of the Euclidean distance from each point to
	// its cluster center (Equation 3), with the R−K maximum-likelihood
	// denominator.
	denom := R - K
	if denom <= 0 {
		denom = 1
	}
	sigma2 := res.Inertia / denom
	if sigma2 <= 0 {
		// Degenerate (all points at centers): substitute a tiny variance
		// so the log-likelihood stays finite and strongly favorable.
		sigma2 = 1e-12
	}

	// l(D|K) — Equation 2, summed per cluster.
	l := 0.0
	for i := 0; i < res.K; i++ {
		Ri := float64(res.Sizes[i])
		if Ri == 0 {
			continue
		}
		l += float64(-Ri/2*math.Log(2*math.Pi)) -
			float64(Ri*dd/2*math.Log(sigma2)) -
			float64((Ri-K)/2) +
			float64(Ri*math.Log(Ri)) -
			float64(Ri*math.Log(R))
	}

	pj := K + float64(dd*K)
	return l - float64(pj/2*math.Log(R))
}

// BestK runs K-means for every K in [kMin, kMax] and returns the result
// with the highest BIC, plus the per-K results (in K order) for
// reporting. Each result equals Run's at its K bit for bit: the point
// norms are computed once, and every restart is seeded once at kMax and
// starts each K from the seeding's first K rows (see seedRestarts). The
// K scan executes concurrently, bounded by Config.Parallelism: workers
// take K values from a shared counter, largest K first, since a run's
// cost grows with K and the largest must not start last. The winner is
// picked by scanning the per-K results in K order (strictly higher BIC
// wins, so ties keep the lowest K), making the choice identical at any
// parallelism.
func BestK(points *mat.Dense, kMin, kMax int, cfg Config) (*Result, []*Result, error) {
	n, _ := points.Dims()
	if kMin < 1 || kMax < kMin {
		return nil, nil, fmt.Errorf("kmeans: invalid K range [%d,%d]", kMin, kMax)
	}
	if kMin > n {
		return nil, nil, fmt.Errorf("kmeans: k=%d exceeds point count %d", kMin, n)
	}
	kMax = min(kMax, n)
	cfg = cfg.withDefaults()
	xnorm := norms(points)
	seeds := seedRestarts(points, kMax, cfg)

	nk := kMax - kMin + 1
	all := make([]*Result, nk)
	// The K workers carry the parallelism; the restarts of each K stay
	// serial to avoid oversubscription.
	inner := cfg
	if parallelism(cfg.Parallelism, nk) > 1 {
		inner.Parallelism = 1
	}
	each(nk, cfg.Parallelism, func(j int) {
		i := nk - 1 - j // largest K first
		all[i] = runSeeded(points, xnorm, seeds, kMin+i, inner)
	})

	best := all[0]
	for _, res := range all[1:] {
		if res.BIC > best.BIC {
			best = res
		}
	}
	return best, all, nil
}

// NearestToCenter returns, per cluster, the index of the point closest to
// the cluster centroid — the paper's first representative-selection policy.
func (r *Result) NearestToCenter(points *mat.Dense) []int {
	reps := make([]int, r.K)
	best := make([]float64, r.K)
	for c := range best {
		best[c] = math.Inf(1)
		reps[c] = -1
	}
	n, _ := points.Dims()
	for i := 0; i < n; i++ {
		c := r.Assign[i]
		d := mat.SquaredDistance(points.RowView(i), r.Centers.RowView(c))
		if d < best[c] {
			best[c] = d
			reps[c] = i
		}
	}
	return reps
}

// FarthestFromCenter returns, per cluster, the index of the point farthest
// from the cluster centroid — the paper's second ("boundary") policy,
// which it finds superior (§VI-B).
func (r *Result) FarthestFromCenter(points *mat.Dense) []int {
	reps := make([]int, r.K)
	best := make([]float64, r.K)
	for c := range best {
		best[c] = -1
		reps[c] = -1
	}
	n, _ := points.Dims()
	for i := 0; i < n; i++ {
		c := r.Assign[i]
		d := mat.SquaredDistance(points.RowView(i), r.Centers.RowView(c))
		if d > best[c] {
			best[c] = d
			reps[c] = i
		}
	}
	return reps
}

// Members returns the point indices assigned to cluster c.
func (r *Result) Members(c int) []int {
	var out []int
	for i, a := range r.Assign {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}
