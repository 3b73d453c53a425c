package kmeans

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/num/mat"
	"repro/internal/rng"
)

// blobs places k well-separated Gaussian blobs of size each in dims
// dimensions and returns the points plus ground-truth assignment.
func blobs(seed uint64, k, size, dims int) (*mat.Dense, []int) {
	r := rng.New(seed)
	pts := mat.NewDense(k*size, dims)
	truth := make([]int, k*size)
	for c := 0; c < k; c++ {
		center := make([]float64, dims)
		for j := range center {
			center[j] = float64(c*20) + r.NormFloat64()
		}
		for i := 0; i < size; i++ {
			row := c*size + i
			truth[row] = c
			for j := 0; j < dims; j++ {
				pts.Set(row, j, center[j]+r.NormFloat64()*0.3)
			}
		}
	}
	return pts, truth
}

func TestRunValidation(t *testing.T) {
	pts, _ := blobs(1, 2, 3, 2)
	if _, err := Run(pts, 0, Config{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(pts, 7, Config{}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestRecoverBlobs(t *testing.T) {
	pts, truth := blobs(2, 3, 10, 4)
	res, err := Run(pts, 3, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	// Every ground-truth blob must map to exactly one cluster.
	m := map[int]int{}
	for i, tc := range truth {
		c := res.Assign[i]
		if prev, ok := m[tc]; ok && prev != c {
			t.Fatalf("blob %d split across clusters", tc)
		}
		m[tc] = c
	}
	if len(m) != 3 {
		t.Fatalf("blobs merged: %v", m)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	pts, _ := blobs(3, 4, 8, 3)
	a, err := Run(pts, 4, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pts, 4, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed produced different inertia")
	}
}

func TestK1SingleCluster(t *testing.T) {
	pts, _ := blobs(4, 2, 5, 2)
	res, err := Run(pts, 1, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Fatal("k=1 produced multiple clusters")
		}
	}
	if res.Sizes[0] != 10 {
		t.Errorf("size = %d, want 10", res.Sizes[0])
	}
}

func TestKEqualsNZeroInertia(t *testing.T) {
	pts, _ := blobs(5, 2, 3, 2)
	res, err := Run(pts, 6, Config{Seed: 2, Restarts: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Errorf("k=n inertia = %v, want ~0", res.Inertia)
	}
}

func TestNoEmptyClusters(t *testing.T) {
	pts, _ := blobs(6, 3, 10, 3)
	res, err := Run(pts, 5, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range res.Sizes {
		if s == 0 {
			t.Errorf("cluster %d is empty", c)
		}
	}
}

func TestBICPrefersTrueK(t *testing.T) {
	pts, _ := blobs(7, 3, 15, 4)
	best, all, err := BestK(pts, 1, 8, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("len(all) = %d, want 8", len(all))
	}
	if best.K != 3 {
		for _, r := range all {
			t.Logf("K=%d BIC=%.2f inertia=%.2f", r.K, r.BIC, r.Inertia)
		}
		t.Errorf("BIC chose K=%d, want 3", best.K)
	}
}

func TestBestKValidation(t *testing.T) {
	pts, _ := blobs(8, 2, 3, 2)
	if _, _, err := BestK(pts, 0, 3, Config{}); err == nil {
		t.Error("kMin=0 accepted")
	}
	if _, _, err := BestK(pts, 3, 2, Config{}); err == nil {
		t.Error("kMax<kMin accepted")
	}
	// kMin > n leaves no K to scan.
	n, _ := pts.Dims()
	if _, _, err := BestK(pts, n+1, n+4, Config{}); err == nil {
		t.Error("kMin>n accepted")
	}
	// kMax > n should clamp, not error.
	if _, _, err := BestK(pts, 1, 100, Config{Seed: 1}); err != nil {
		t.Errorf("kMax>n errored: %v", err)
	}
}

func TestNearestAndFarthestRepresentatives(t *testing.T) {
	pts, _ := blobs(9, 2, 10, 2)
	res, err := Run(pts, 2, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	near := res.NearestToCenter(pts)
	far := res.FarthestFromCenter(pts)
	for c := 0; c < 2; c++ {
		if near[c] < 0 || far[c] < 0 {
			t.Fatalf("representative missing for cluster %d", c)
		}
		if res.Assign[near[c]] != c || res.Assign[far[c]] != c {
			t.Errorf("representative not in its own cluster")
		}
		dn := mat.Distance(pts.Row(near[c]), res.Centers.Row(c))
		df := mat.Distance(pts.Row(far[c]), res.Centers.Row(c))
		if dn > df+1e-12 {
			t.Errorf("nearest (%v) farther than farthest (%v)", dn, df)
		}
		// Check true extremality over the cluster members.
		for _, i := range res.Members(c) {
			d := mat.Distance(pts.Row(i), res.Centers.Row(c))
			if d < dn-1e-12 {
				t.Errorf("point %d closer than nearest representative", i)
			}
			if d > df+1e-12 {
				t.Errorf("point %d farther than farthest representative", i)
			}
		}
	}
}

func TestMembersPartition(t *testing.T) {
	pts, _ := blobs(10, 3, 5, 2)
	res, err := Run(pts, 3, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := 0; c < res.K; c++ {
		ms := res.Members(c)
		total += len(ms)
		for _, i := range ms {
			if res.Assign[i] != c {
				t.Errorf("member %d of cluster %d has assignment %d", i, c, res.Assign[i])
			}
		}
	}
	if total != 15 {
		t.Errorf("members cover %d points, want 15", total)
	}
}

func TestBICFormulaK1(t *testing.T) {
	// Hand-check the BIC formula on a trivial 1-cluster dataset.
	pts := mat.FromRows([][]float64{{0}, {2}})
	res, err := Run(pts, 1, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Center = 1, inertia = 2, sigma² = 2/(2-1) = 2.
	// l = -R/2·log(2π) - R·d/2·log(σ²) - (R-K)/2 + R·log(R) - R·log(R)
	R, d, sigma2 := 2.0, 1.0, 2.0
	want := -R/2*math.Log(2*math.Pi) - R*d/2*math.Log(sigma2) - (R-1)/2
	want -= (1 + d) / 2 * math.Log(R) // p_j = K + dK = 2
	if math.Abs(res.BIC-want) > 1e-9 {
		t.Errorf("BIC = %v, want %v", res.BIC, want)
	}
}

// Property: every point is assigned to its nearest center (Lloyd fixed
// point invariant).
func TestQuickAssignmentsAreNearest(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, d := 8+r.Intn(20), 1+r.Intn(4)
		pts := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				pts.Set(i, j, r.NormFloat64())
			}
		}
		k := 1 + r.Intn(4)
		if k > n {
			k = n
		}
		res, err := Run(pts, k, Config{Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			have := mat.SquaredDistance(pts.Row(i), res.Centers.Row(res.Assign[i]))
			for c := 0; c < k; c++ {
				if mat.SquaredDistance(pts.Row(i), res.Centers.Row(c)) < have-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: inertia never increases when K increases (with enough restarts
// the optimum is monotone; we tolerate tiny slack for local minima).
func TestQuickInertiaMonotoneInK(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, d := 12+r.Intn(12), 2
		pts := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				pts.Set(i, j, r.NormFloat64())
			}
		}
		prev := math.Inf(1)
		for k := 1; k <= 5; k++ {
			res, err := Run(pts, k, Config{Seed: seed, Restarts: 12})
			if err != nil {
				return false
			}
			if res.Inertia > prev*1.05+1e-9 {
				return false
			}
			prev = res.Inertia
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: sizes sum to n and match Assign.
func TestQuickSizesConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(20)
		pts := mat.NewDense(n, 2)
		for i := 0; i < n; i++ {
			pts.Set(i, 0, r.NormFloat64())
			pts.Set(i, 1, r.NormFloat64())
		}
		k := 1 + r.Intn(5)
		if k > n {
			k = n
		}
		res, err := Run(pts, k, Config{Seed: seed})
		if err != nil {
			return false
		}
		counts := make([]int, k)
		for _, a := range res.Assign {
			if a < 0 || a >= k {
				return false
			}
			counts[a]++
		}
		for c := range counts {
			if counts[c] != res.Sizes[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
