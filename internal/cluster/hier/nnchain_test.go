package hier

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/num/mat"
)

// randomPoints builds an n×d matrix of standard normal coordinates.
// Random real coordinates have pairwise-distinct distances almost surely,
// which is the regime where the NN-chain and greedy algorithms must agree
// exactly.
func randomPoints(rng *rand.Rand, n, d int) *mat.Dense {
	m := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func dendrogramsEqual(t *testing.T, linkage Linkage, got, want *Dendrogram) {
	t.Helper()
	if got.N != want.N || len(got.Merges) != len(want.Merges) {
		t.Fatalf("%v: shape mismatch: N=%d/%d merges=%d/%d",
			linkage, got.N, want.N, len(got.Merges), len(want.Merges))
	}
	for i := range got.Merges {
		g, w := got.Merges[i], want.Merges[i]
		if g.A != w.A || g.B != w.B || g.Size != w.Size {
			t.Fatalf("%v: merge %d structure differs: got %+v want %+v", linkage, i, g, w)
		}
		// The two algorithms evaluate the same Lance–Williams updates in a
		// different order, so distances may differ by accumulated rounding.
		diff := g.Distance - w.Distance
		if diff < 0 {
			diff = -diff
		}
		tol := 1e-9 * (1 + w.Distance)
		if diff > tol {
			t.Fatalf("%v: merge %d distance differs: got %v want %v", linkage, i, g.Distance, w.Distance)
		}
	}
}

// TestNNChainMatchesReference checks that the production NN-chain Cluster
// reproduces the seed implementation's dendrogram (kept as
// clusterReference) on random matrices for all four linkages.
func TestNNChainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, linkage := range []Linkage{Single, Complete, Average, Ward} {
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(40)
			d := 1 + rng.Intn(6)
			pts := randomPoints(rng, n, d)

			got, err := Cluster(pts, linkage)
			if err != nil {
				t.Fatalf("%v n=%d: %v", linkage, n, err)
			}
			want, err := clusterReference(pts, linkage)
			if err != nil {
				t.Fatalf("%v n=%d reference: %v", linkage, n, err)
			}
			dendrogramsEqual(t, linkage, got, want)
		}
	}
}

// TestNNChainMonotoneMerges asserts the relabeled merge history is in
// nondecreasing distance order, which downstream Cut/CutK rely on.
func TestNNChainMonotoneMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, linkage := range []Linkage{Single, Complete, Average, Ward} {
		pts := randomPoints(rng, 33, 4)
		d, err := Cluster(pts, linkage)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(d.Merges); i++ {
			if d.Merges[i].Distance < d.Merges[i-1].Distance {
				t.Fatalf("%v: merge %d distance %v < previous %v",
					linkage, i, d.Merges[i].Distance, d.Merges[i-1].Distance)
			}
		}
	}
}

// TestNNChainDuplicatePoints exercises the tied-distance path (duplicate
// points make many zero distances): the result must still be a valid
// dendrogram with n-1 merges and a full final cluster.
func TestNNChainDuplicatePoints(t *testing.T) {
	for _, linkage := range []Linkage{Single, Complete, Average, Ward} {
		m := mat.NewDense(6, 2)
		for i := 0; i < 6; i++ {
			m.Set(i, 0, float64(i/3)) // two triplets of identical points
			m.Set(i, 1, float64(i/3))
		}
		d, err := Cluster(m, linkage)
		if err != nil {
			t.Fatalf("%v: %v", linkage, err)
		}
		if len(d.Merges) != 5 {
			t.Fatalf("%v: %d merges, want 5", linkage, len(d.Merges))
		}
		if d.Merges[4].Size != 6 {
			t.Fatalf("%v: final size %d, want 6", linkage, d.Merges[4].Size)
		}
	}
}

func TestClusterRejectsUnknownLinkage(t *testing.T) {
	if _, err := Cluster(mat.NewDense(3, 2), Linkage(99)); err == nil {
		t.Error("unknown linkage accepted")
	}
}

func BenchmarkNNChain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 200, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(pts, Single); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceCluster(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 200, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clusterReference(pts, Single); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClusterMatchesActiveReference checks that Cluster reproduces the
// active-flag chain merge for merge, every height bit for bit, under all
// four linkages: on random points, on duplicated points (many zero
// distances) and on small integer grids, where exactly equal distances
// exercise the chain-predecessor and smallest-index tie rules.
func TestClusterMatchesActiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	var inputs []*mat.Dense
	for trial := 0; trial < 12; trial++ {
		inputs = append(inputs, randomPoints(rng, 2+rng.Intn(60), 1+rng.Intn(6)))
	}
	for trial := 0; trial < 12; trial++ {
		n, d := 2+rng.Intn(60), 1+rng.Intn(3)
		grid := mat.NewDense(n, d)
		dup := randomPoints(rng, n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				grid.Set(i, j, float64(rng.Intn(4)))
				if i > 0 && rng.Intn(3) == 0 {
					dup.Set(i, j, dup.At(rng.Intn(i), j))
				}
			}
		}
		inputs = append(inputs, grid, dup)
	}
	inputs = append(inputs, wideBlobs(300))
	for _, linkage := range []Linkage{Single, Complete, Average, Ward} {
		for c, pts := range inputs {
			got, err := Cluster(pts, linkage)
			if err != nil {
				t.Fatalf("%v input %d: %v", linkage, c, err)
			}
			want := clusterActiveReference(pts, linkage)
			for i := range want.Merges {
				g, w := got.Merges[i], want.Merges[i]
				if g.A != w.A || g.B != w.B || g.Size != w.Size ||
					math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
					t.Fatalf("%v input %d merge %d: got %+v, reference %+v", linkage, c, i, g, w)
				}
			}
		}
	}
}
