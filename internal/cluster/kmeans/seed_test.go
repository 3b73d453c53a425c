package kmeans

import (
	"math"
	"testing"

	"repro/internal/num/mat"
	"repro/internal/rng"
)

// TestSeedPrefix checks the fact BestK's shared seeding rests on: for
// every K < KMax, seeding K centers gives exactly the first K rows of
// seeding KMax centers from the same RNG state. The duplicated inputs
// run out of distinct points before KMax, so their later centers come
// from the uniform draw taken when every D² weight is zero.
func TestSeedPrefix(t *testing.T) {
	few := mat.FromRows([][]float64{
		{0, 0}, {2, 0}, {0, 2}, {0, 0}, {2, 0}, {0, 2},
		{0, 0}, {2, 0}, {0, 2}, {0, 0}, {2, 0}, {0, 2},
	})
	same := mat.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}})
	cases := []struct {
		name string
		pts  *mat.Dense
		kMax int
	}{
		{"wide", wideBlobs(256), 12},
		{"lattice", lattice(3, 2, 3), 12},
		{"few", few, 12},
		{"all equal", same, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for r := uint64(0); r < 4; r++ {
				s := 7 + r*0x9E3779B97F4A7C15
				full := seedPlusPlus(tc.pts, tc.kMax, rng.New(s))
				for k := 1; k < tc.kMax; k++ {
					got := seedPlusPlus(tc.pts, k, rng.New(s))
					for c := 0; c < k; c++ {
						for j, v := range got.RowView(c) {
							if w := full.At(c, j); math.Float64bits(v) != math.Float64bits(w) {
								t.Fatalf("seed %d, K=%d: center %d coordinate %d is %v, K=%d seeding has %v", r, k, c, j, v, tc.kMax, w)
							}
						}
					}
				}
			}
		})
	}
}

// bestKMatchesRun checks that each of BestK's per-K results equals Run at
// that K bit for bit, kMax clamped to the point count as BestK clamps it.
func bestKMatchesRun(t testing.TB, pts *mat.Dense, kMin, kMax int, cfg Config) {
	t.Helper()
	_, all, err := BestK(pts, kMin, kMax, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pts.Dims()
	if want := min(kMax, n) - kMin + 1; len(all) != want {
		t.Fatalf("BestK returned %d results, want %d", len(all), want)
	}
	for _, got := range all {
		want, err := Run(pts, got.K, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := resultDiff(got, want); diff != "" {
			t.Fatalf("Parallelism=%d, K=%d: BestK's result differs from Run's: %s", cfg.Parallelism, got.K, diff)
		}
	}
}

// TestBestKMatchesRun checks that seeding once at KMax leaves every per-K
// result of the scan as Run computes it alone, at both parallelism paths.
func TestBestKMatchesRun(t *testing.T) {
	dup := mat.FromRows([][]float64{{0, 0}, {3, 1}, {0, 0}, {5, 5}, {1, 4}})
	for _, par := range []int{1, 4} {
		cfg := wideCfg
		cfg.Parallelism = par
		bestKMatchesRun(t, wideBlobs(256), 1, 12, cfg)
		bestKMatchesRun(t, dup, 2, 12, cfg) // kMax clamped to 5
	}
}

// FuzzBestKVsRun decodes a matrix (decodeMatrix) and checks that every
// per-K result of a K scan over it equals Run at that K bit for bit.
func FuzzBestKVsRun(f *testing.F) {
	f.Add(encodeMatrix(wideBlobs(64)), uint8(8), uint8(1), uint8(11), uint64(7))
	f.Add(encodeMatrix(offset(wideBlobs(64), 1e6)), uint8(8), uint8(3), uint8(6), uint64(3))
	f.Add(encodeMatrix(lattice(3, 2, 3)), uint8(2), uint8(2), uint8(15), uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, dims, kMin, span uint8, seed uint64) {
		m := decodeMatrix(data, dims)
		if m == nil {
			return
		}
		n, _ := m.Dims()
		lo := 1 + int(kMin)%min(n, 16)
		bestKMatchesRun(t, m, lo, lo+int(span)%16, Config{Restarts: 3, Seed: seed, Parallelism: 2})
	})
}
