package hier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/num/mat"
	"repro/internal/rng"
)

// wideBlobs returns a seeded n×8 matrix of unit-variance points around
// five blob centers drawn with spread 4 (the same matrix the kmeans
// package's wide-scale golden uses).
func wideBlobs(n int) *mat.Dense {
	const d, nBlobs = 8, 5
	r := rng.New(20140926)
	centers := make([][]float64, nBlobs)
	for b := range centers {
		centers[b] = make([]float64, d)
		for j := range centers[b] {
			centers[b][j] = 4 * r.NormFloat64()
		}
	}
	m := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		c := centers[i%nBlobs]
		for j := 0; j < d; j++ {
			m.Set(i, j, c[j]+r.NormFloat64())
		}
	}
	return m
}

// dendrogramHash digests a merge history bit for bit: every merge's
// children, size and height, in merge order.
func dendrogramHash(d *Dendrogram) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, m := range d.Merges {
		put(uint64(m.A))
		put(uint64(m.B))
		put(uint64(m.Size))
		put(math.Float64bits(m.Distance))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestClusterWideGolden pins the merge order and every merge height of a
// 512-row dendrogram under each linkage.
func TestClusterWideGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned bits are recorded on amd64")
	}
	want := map[Linkage]string{
		Single:   "8e9d025d50dbad65ffcf8278ddd3d0c29ed7fbe54111ca5904907535f8477e60",
		Complete: "7f67e1b98b9d4ee37fa37f0cd4f6e5bd1ab4ed5a28bf070a565b4aef5577a1a3",
		Average:  "d961782c9620d0604b25b0e600969835ef389ef95f99ed15774ae972b20db466",
		Ward:     "872587feaddd8213a84bb1526287cf096d162ccf91720a9c768f198115c5a9b4",
	}
	pts := wideBlobs(512)
	for _, linkage := range []Linkage{Single, Complete, Average, Ward} {
		d, err := Cluster(pts, linkage)
		if err != nil {
			t.Fatal(err)
		}
		if got := dendrogramHash(d); got != want[linkage] {
			t.Errorf("%v: dendrogram hash %s, pinned %s", linkage, got, want[linkage])
		}
	}
}

// TestCopheneticCorrelationWideGolden pins the cophenetic correlation's
// bits on the first 128 rows of the same matrix.
func TestCopheneticCorrelationWideGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned bits are recorded on amd64")
	}
	const want = 0x3fedadb8fb1c9057
	pts := wideBlobs(128)
	d, err := Cluster(pts, Average)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(d.CopheneticCorrelation(pts)); got != want {
		t.Errorf("cophenetic correlation bits %#x, pinned %#x", got, uint64(want))
	}
}
