package kmeans

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
// five blob centers drawn with spread 4, so neighbouring blobs overlap and
// the BIC scan has real work at every K.
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

// wideCfg is the K scan the wide-scale golden and BenchmarkBestKWide run.
var wideCfg = Config{Restarts: 16, Seed: 7}

// bestKHash digests a BestK outcome bit for bit: the chosen K, then per K
// its assignment, center coordinates, inertia and BIC.
func bestKHash(best *Result, all []*Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(best.K))
	for _, r := range all {
		put(uint64(r.K))
		for _, a := range r.Assign {
			put(uint64(a))
		}
		k, d := r.Centers.Dims()
		for c := 0; c < k; c++ {
			for j := 0; j < d; j++ {
				put(math.Float64bits(r.Centers.At(c, j)))
			}
		}
		put(math.Float64bits(r.Inertia))
		put(math.Float64bits(r.BIC))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBestKWideGolden pins every bit of a 512-row K scan (K 2…12, 16
// restarts) at two parallelism settings. The 32-row goldens elsewhere are
// too small for a reordered reduction or a changed center update to show;
// at this scale either moves a bit here.
func TestBestKWideGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned bits are recorded on amd64")
	}
	const want = "42a8ab418cc69a88984d46fa2663552b795b54998ad7c7c3b2bc28fcc76a7078"
	pts := wideBlobs(512)
	for _, par := range []int{1, 4} {
		cfg := wideCfg
		cfg.Parallelism = par
		best, all, err := BestK(pts, 2, 12, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := bestKHash(best, all); got != want {
			t.Errorf("Parallelism=%d: BestK hash %s (best K=%d), pinned %s", par, got, best.K, want)
		}
	}
}
