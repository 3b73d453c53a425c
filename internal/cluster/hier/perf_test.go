package hier

import (
	"runtime"
	"testing"
)

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

// TestClusterBytesCondensedPlusLinear pins the bytes Cluster allocates at
// 1024 rows to the condensed store plus O(n): the live list, the chain,
// the sizes, the row offsets and the merge history are each a few words
// per point, so 256 bytes per point bounds them together.
func TestClusterBytesCondensedPlusLinear(t *testing.T) {
	const n = 1024
	pts := wideBlobs(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Cluster(pts, Single); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	condensed := uint64(8 * n * (n - 1) / 2)
	if got, limit := after.TotalAlloc-before.TotalAlloc, condensed+256*n; got > limit {
		t.Errorf("Cluster(%d×8) allocated %d bytes, want ≤ %d (condensed store %d + 256 per point)",
			n, got, limit, condensed)
	}
}
