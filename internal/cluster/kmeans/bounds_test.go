package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/num/mat"
	"repro/internal/rng"
)

// restartsMatch runs restarts of both runOnce and runOnceReference on
// the same seeds and reports the first restart whose results differ in
// any bit: assignment, center coordinates, sizes, inertia or iterations.
// runOnce starts from the first k rows of a seeding at up to k+3
// centers, as BestK's shared seeding hands it; the reference seeds at k.
func restartsMatch(t testing.TB, pts *mat.Dense, k, restarts, maxIter int, seed uint64) {
	t.Helper()
	n, _ := pts.Dims()
	xnorm := norms(pts)
	for r := 0; r < restarts; r++ {
		s := seed + uint64(r)*0x9E3779B97F4A7C15
		got := runOnce(pts, xnorm, seedPlusPlus(pts, min(k+3, n), rng.New(s)), k, maxIter)
		want := runOnceReference(pts, xnorm, k, maxIter, rng.New(s))
		if diff := resultDiff(got, want); diff != "" {
			t.Fatalf("k=%d restart %d: %s", k, r, diff)
		}
	}
}

// resultDiff names the first field in which got differs from want in any
// bit, or returns "" when they are identical.
func resultDiff(got, want *Result) string {
	switch {
	case got.K != want.K:
		return fmt.Sprintf("K %d, want %d", got.K, want.K)
	case !slices.Equal(got.Assign, want.Assign):
		return "assignments differ"
	case !slices.Equal(got.Sizes, want.Sizes):
		return fmt.Sprintf("sizes %v, want %v", got.Sizes, want.Sizes)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("%d iterations, want %d", got.Iterations, want.Iterations)
	case math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia):
		return fmt.Sprintf("inertia %v, want %v", got.Inertia, want.Inertia)
	case math.Float64bits(got.BIC) != math.Float64bits(want.BIC):
		return fmt.Sprintf("BIC %v, want %v", got.BIC, want.BIC)
	}
	for c := 0; c < got.K; c++ {
		for j, v := range got.Centers.RowView(c) {
			if w := want.Centers.At(c, j); math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Sprintf("center %d coordinate %d is %v, want %v", c, j, v, w)
			}
		}
	}
	return ""
}

// lattice returns every point of the integer grid {0,…,side−1}^d, each
// copies times: exact ties between centers and duplicated points.
func lattice(side, d, copies int) *mat.Dense {
	cells := 1
	for j := 0; j < d; j++ {
		cells *= side
	}
	m := mat.NewDense(cells*copies, d)
	for i := 0; i < cells*copies; i++ {
		v := i % cells
		for j := 0; j < d; j++ {
			m.Set(i, j, float64(v%side))
			v /= side
		}
	}
	return m
}

// offset returns a copy of m with every coordinate shifted by off, which
// makes ‖x‖²+‖c‖²−2x·c cancel catastrophically.
func offset(m *mat.Dense, off float64) *mat.Dense {
	n, d := m.Dims()
	out := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j, v := range m.RowView(i) {
			out.Set(i, j, v+off)
		}
	}
	return out
}

// TestRunMatchesReference checks that pruning by bounds changes no bit of
// any restart on inputs built to break it.
func TestRunMatchesReference(t *testing.T) {
	wide := wideBlobs(256)
	// Four points at the corners of a square, each twice, plus their
	// center: every point is equidistant from two or four others.
	square := mat.FromRows([][]float64{
		{-1, -1}, {1, -1}, {-1, 1}, {1, 1},
		{-1, -1}, {1, -1}, {-1, 1}, {1, 1}, {0, 0},
	})
	// k = n with a duplicated point: two seeds coincide, the higher one
	// wins no point in the first iteration, and its cluster is repaired.
	dup := mat.FromRows([][]float64{{0, 0}, {3, 1}, {0, 0}, {5, 5}, {1, 4}})
	// Three distinct locations, four copies each: once all three are
	// seeded every remaining seed repeats one, so k = 5 empties clusters.
	few := mat.FromRows([][]float64{
		{0, 0}, {2, 0}, {0, 2}, {0, 0}, {2, 0}, {0, 2},
		{0, 0}, {2, 0}, {0, 2}, {0, 0}, {2, 0}, {0, 2},
	})
	cases := []struct {
		name    string
		pts     *mat.Dense
		ks      []int
		maxIter int
	}{
		{"wide", wide, []int{1, 2, 5, 7, 12}, 100},
		// Stopped before converging: the exact pass must scan every point.
		{"wide, at most 3 iterations", wide, []int{2, 7, 12}, 3},
		{"wide+1e6", offset(wide, 1e6), []int{2, 7, 12}, 100},
		// At 1e8 the computed distances' rounding noise exceeds the blob
		// spread, so the reference's assignment flips for many iterations.
		{"wide+1e8", offset(wide, 1e8), []int{2, 7, 12}, 100},
		{"lattice", lattice(4, 3, 2), []int{1, 2, 3, 8, 12, 128}, 100},
		{"lattice+1e6", offset(lattice(4, 3, 2), 1e6), []int{2, 8, 12}, 100},
		{"square", square, []int{1, 2, 3, 4, 9}, 100},
		{"dup k=n", dup, []int{5}, 100},
		{"few k>distinct", few, []int{4, 5, 12}, 100},
		{"single row", mat.FromRows([][]float64{{1, 2, 3}}), []int{1}, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range tc.ks {
				restartsMatch(t, tc.pts, k, 8, tc.maxIter, 7)
			}
		})
	}
}

// TestExactPassScansUnconverged checks that a restart stopped by
// MaxIterations scans every point in its exact pass. Seeded at 0 and 24,
// one iteration assigns the point at 10 to the center at 0; the update
// then moves that center to 1 and the other to 15.2, which is nearer.
// The bounds still prove the old center by the stale center distance
// (24), so a pass that trusted them would keep the point where it is.
func TestExactPassScansUnconverged(t *testing.T) {
	pts := mat.FromRows([][]float64{
		{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}, {10}, {24}, {13}, {13}, {13}, {13},
	})
	res := runOnce(pts, norms(pts), mat.FromRows([][]float64{{0}, {24}}), 2, 1)
	if res.Iterations != 1 || res.Centers.At(0, 0) != 1 {
		t.Fatalf("%d iterations, centers %v: the case needs one update from the seeds", res.Iterations, res.Centers)
	}
	if res.Assign[9] != 1 {
		t.Errorf("point 10 is with center %v, want the nearer %v", res.Centers.Row(res.Assign[9]), res.Centers.Row(1))
	}
}

// encodeMatrix lays m out as little-endian float64s, row by row: the
// fuzz targets' input format.
func encodeMatrix(m *mat.Dense) []byte {
	n, d := m.Dims()
	b := make([]byte, 0, 8*n*d)
	for i := 0; i < n; i++ {
		for _, v := range m.RowView(i) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// decodeMatrix reads a fuzz input as encodeMatrix writes it, with
// 1+dims%16 columns and at most 256 rows. It returns nil for an input
// with no whole row, or holding a non-finite value or one whose square
// could overflow.
func decodeMatrix(data []byte, dims uint8) *mat.Dense {
	d := 1 + int(dims)%16
	n := min(len(data)/(8*d), 256)
	if n == 0 {
		return nil
	}
	m := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i*d+j):]))
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return nil
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// FuzzRunVsReference decodes a matrix (decodeMatrix) and checks that the
// bound-pruned restart matches the reference bit for bit.
func FuzzRunVsReference(f *testing.F) {
	f.Add(encodeMatrix(wideBlobs(64)), uint8(8), uint8(7), uint64(7))
	f.Add(encodeMatrix(wideBlobs(128)), uint8(8), uint8(12), uint64(1))
	f.Add(encodeMatrix(offset(wideBlobs(64), 1e6)), uint8(8), uint8(5), uint64(3))
	f.Add(encodeMatrix(lattice(3, 2, 3)), uint8(2), uint8(9), uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, dims, k uint8, seed uint64) {
		m := decodeMatrix(data, dims)
		if m == nil {
			return
		}
		n, _ := m.Dims()
		restartsMatch(t, m, 1+int(k)%min(n, 16), 2, 100, seed)
	})
}

// TestBoundsPruneWideScan pins how many full assignment scans the bounds
// leave on the wide-scale golden's K=12 run (16 restarts), in the Lloyd
// loop and in the exact pass: the counts are deterministic, and each must
// stay under half of the scans the reference makes (n·iterations and n
// per restart). The pinned counts are recorded on amd64.
func TestBoundsPruneWideScan(t *testing.T) {
	const want, wantExact = 47188, 0
	pts := wideBlobs(512)
	n, _ := pts.Dims()
	scans, pointIters, exactScans, points := 0, 0, 0, 0
	scanHook = func(s, p, e int) { scans += s; pointIters += p; exactScans += e; points += n }
	defer func() { scanHook = nil }()
	cfg := wideCfg
	cfg.Parallelism = 1
	if _, err := Run(pts, 12, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d full scans of %d point-iterations (%.1f%%)", scans, pointIters, 100*float64(scans)/float64(pointIters))
	if scans != want && runtime.GOARCH == "amd64" {
		t.Errorf("%d full scans, pinned %d", scans, want)
	}
	if 2*scans >= pointIters {
		t.Errorf("%d full scans is not under half of %d point-iterations", scans, pointIters)
	}
	t.Logf("exact pass: %d full scans of %d points (%.1f%%)", exactScans, points, 100*float64(exactScans)/float64(points))
	if exactScans != wantExact && runtime.GOARCH == "amd64" {
		t.Errorf("%d exact-pass full scans, pinned %d", exactScans, wantExact)
	}
	if 2*exactScans >= points {
		t.Errorf("%d exact-pass full scans is not under half of %d points", exactScans, points)
	}
}
