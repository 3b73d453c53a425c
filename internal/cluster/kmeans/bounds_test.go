package kmeans

import (
	"encoding/binary"
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
func restartsMatch(t testing.TB, pts *mat.Dense, k, restarts int, seed uint64) {
	t.Helper()
	n, _ := pts.Dims()
	xnorm := make([]float64, n)
	for i := range xnorm {
		row := pts.RowView(i)
		xnorm[i] = mat.Dot(row, row)
	}
	const maxIter = 100
	for r := 0; r < restarts; r++ {
		s := seed + uint64(r)*0x9E3779B97F4A7C15
		got := runOnce(pts, xnorm, k, maxIter, rng.New(s))
		want := runOnceReference(pts, xnorm, k, maxIter, rng.New(s))
		switch {
		case !slices.Equal(got.Assign, want.Assign):
			t.Fatalf("k=%d restart %d: assignments differ", k, r)
		case !slices.Equal(got.Sizes, want.Sizes):
			t.Fatalf("k=%d restart %d: sizes %v, reference %v", k, r, got.Sizes, want.Sizes)
		case got.Iterations != want.Iterations:
			t.Fatalf("k=%d restart %d: %d iterations, reference %d", k, r, got.Iterations, want.Iterations)
		case math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia):
			t.Fatalf("k=%d restart %d: inertia %v, reference %v", k, r, got.Inertia, want.Inertia)
		}
		for c := 0; c < k; c++ {
			for j, v := range got.Centers.RowView(c) {
				if w := want.Centers.At(c, j); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("k=%d restart %d: center %d coordinate %d is %v, reference %v", k, r, c, j, v, w)
				}
			}
		}
	}
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
		name string
		pts  *mat.Dense
		ks   []int
	}{
		{"wide", wide, []int{1, 2, 5, 7, 12}},
		{"wide+1e6", offset(wide, 1e6), []int{2, 7, 12}},
		// At 1e8 the computed distances' rounding noise exceeds the blob
		// spread, so the reference's assignment flips for many iterations.
		{"wide+1e8", offset(wide, 1e8), []int{2, 7, 12}},
		{"lattice", lattice(4, 3, 2), []int{1, 2, 3, 8, 12, 128}},
		{"lattice+1e6", offset(lattice(4, 3, 2), 1e6), []int{2, 8, 12}},
		{"square", square, []int{1, 2, 3, 4, 9}},
		{"dup k=n", dup, []int{5}},
		{"few k>distinct", few, []int{4, 5, 12}},
		{"single row", mat.FromRows([][]float64{{1, 2, 3}}), []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range tc.ks {
				restartsMatch(t, tc.pts, k, 8, 7)
			}
		})
	}
}

// FuzzRunVsReference decodes a matrix from little-endian float64s (dims
// columns, at most 256 rows) and checks that the bound-pruned restart
// matches the reference bit for bit. Inputs holding a non-finite value
// or one whose square could overflow are passed over.
func FuzzRunVsReference(f *testing.F) {
	encode := func(m *mat.Dense) []byte {
		n, d := m.Dims()
		b := make([]byte, 0, 8*n*d)
		for i := 0; i < n; i++ {
			for _, v := range m.RowView(i) {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
		return b
	}
	f.Add(encode(wideBlobs(64)), uint8(8), uint8(7), uint64(7))
	f.Add(encode(wideBlobs(128)), uint8(8), uint8(12), uint64(1))
	f.Add(encode(offset(wideBlobs(64), 1e6)), uint8(8), uint8(5), uint64(3))
	f.Add(encode(lattice(3, 2, 3)), uint8(2), uint8(9), uint64(2))
	f.Fuzz(func(t *testing.T, data []byte, dims, k uint8, seed uint64) {
		d := 1 + int(dims)%16
		n := min(len(data)/(8*d), 256)
		if n == 0 {
			return
		}
		m := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i*d+j):]))
				if math.IsNaN(v) || math.Abs(v) > 1e100 {
					return
				}
				m.Set(i, j, v)
			}
		}
		restartsMatch(t, m, 1+int(k)%min(n, 16), 2, seed)
	})
}

// TestBoundsPruneWideScan pins how many full assignment scans the bounds
// leave on the wide-scale golden's K=12 run (16 restarts): the count is
// deterministic, and it must stay under half of the n·iterations the
// reference scans. The pinned count is recorded on amd64.
func TestBoundsPruneWideScan(t *testing.T) {
	const want = 47188
	scans, pointIters := 0, 0
	scanHook = func(s, p int) { scans += s; pointIters += p }
	defer func() { scanHook = nil }()
	cfg := wideCfg
	cfg.Parallelism = 1
	if _, err := Run(wideBlobs(512), 12, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d full scans of %d point-iterations (%.1f%%)", scans, pointIters, 100*float64(scans)/float64(pointIters))
	if scans != want && runtime.GOARCH == "amd64" {
		t.Errorf("%d full scans, pinned %d", scans, want)
	}
	if 2*scans >= pointIters {
		t.Errorf("%d full scans is not under half of %d point-iterations", scans, pointIters)
	}
}
