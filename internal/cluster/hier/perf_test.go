package hier

import "testing"

// TestClusterAllocsLinear checks that building the dendrogram allocates
// O(n), not O(n²): reading rows in place leaves the n(n-1)/2 pairwise
// distances allocation-free, where copying a row per pair would make
// about 131 000 allocations at 512 rows.
func TestClusterAllocsLinear(t *testing.T) {
	const n = 512
	pts := wideBlobs(n)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Cluster(pts, Single); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n {
		t.Errorf("Cluster(%d×8) made %.0f allocations, want < %d", n, allocs, n)
	}
}

// BenchmarkClusterWide times the single-linkage dendrogram (the
// pipeline's default) of the wide-scale golden's 512×8 matrix.
func BenchmarkClusterWide(b *testing.B) {
	pts := wideBlobs(512)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Cluster(pts, Single); err != nil {
			b.Fatal(err)
		}
	}
}
