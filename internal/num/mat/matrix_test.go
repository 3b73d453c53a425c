package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseInvalidPanics(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewDense(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSetGetRoundTrip(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(1, 0, 7.5)
	if got := m.At(1, 0); got != 7.5 {
		t.Fatalf("At(1,0) = %v, want 7.5", got)
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	m.At(2, 0)
}

func TestRowColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Row returned a view, want a copy")
	}
	c := m.Col(1)
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Error("Col returned a view, want a copy")
	}
	if got := m.Col(1); got[0] != 2 || got[1] != 4 {
		t.Errorf("Col(1) = %v, want [2 4]", got)
	}
}

// TestRowViewAliases checks RowView's contract: it shares storage with
// the matrix both ways, and its capped capacity makes an append copy
// instead of overwriting the next row.
func TestRowViewAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	v := m.RowView(0)
	v[1] = 7
	if m.At(0, 1) != 7 {
		t.Error("write through RowView did not reach the matrix")
	}
	m.Set(0, 0, 5)
	if v[0] != 5 {
		t.Error("write to the matrix did not show through RowView")
	}
	if cap(v) != 2 {
		t.Errorf("cap(RowView) = %d, want 2", cap(v))
	}
	_ = append(v, 9)
	if m.At(1, 0) != 3 {
		t.Error("append to RowView overwrote the next row")
	}
	defer func() {
		if recover() == nil {
			t.Error("RowView(2) on a 2-row matrix did not panic")
		}
	}()
	m.RowView(2)
}

// TestVectorLengthMismatchPanics checks that Dot, Distance and
// SquaredDistance still name themselves and both lengths when they panic,
// now that the message is formatted lazily.
func TestVectorLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(a, b []float64) float64{
		"Dot": Dot, "Distance": Distance, "SquaredDistance": SquaredDistance,
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				want := "mat: " + name + " length mismatch 2 vs 3"
				if err == nil || err.Error() != want {
					t.Errorf("%s panicked with %v, want %q", name, err, want)
				}
			}()
			f([]float64{1, 2}, []float64{1, 2, 3})
		}()
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tt := m.T().T()
	if !Equal(m, tt, 0) {
		t.Error("T(T(m)) != m")
	}
	if m.T().At(2, 1) != 6 {
		t.Errorf("T element wrong: %v", m.T().At(2, 1))
	}
}

func TestMulIdentity(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := Mul(m, Identity(2))
	if !Equal(got, m, 1e-15) {
		t.Error("m * I != m")
	}
	got = Mul(Identity(3), m)
	if !Equal(got, m, 1e-15) {
		t.Error("I * m != m")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !Equal(got, want, 1e-12) {
		t.Errorf("Mul =\n%v want\n%v", got, want)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Mul did not panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
}

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	if got := Add(a, b); got.At(0, 0) != 5 || got.At(1, 1) != 5 {
		t.Errorf("Add wrong: %v", got)
	}
	if got := Sub(a, b); got.At(0, 0) != -3 || got.At(1, 1) != 3 {
		t.Errorf("Sub wrong: %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestIsSymmetric(t *testing.T) {
	s := FromRows([][]float64{{1, 2}, {2, 1}})
	if !s.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	a := FromRows([][]float64{{1, 2}, {3, 1}})
	if a.IsSymmetric(0.5) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewDense(2, 3).IsSymmetric(1) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
}

func TestScale(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	m.Scale(3)
	if m.At(0, 1) != 6 {
		t.Errorf("Scale wrong: %v", m.At(0, 1))
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{1, -7}, {3, 4}})
	if got := m.MaxAbs(); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
}

func TestStringContainsElements(t *testing.T) {
	m := FromRows([][]float64{{1.5, 2}})
	if s := m.String(); len(s) == 0 {
		t.Error("String is empty")
	}
}

// randomMatrix builds a deterministic pseudo-random r×c matrix.
func randomMatrix(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestQuickTransposeOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(rng, n, k)
		b := randomMatrix(rng, k, m)
		left := Mul(a, b).T()
		right := Mul(b.T(), a.T())
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: matrix product is associative.
func TestQuickMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		c := randomMatrix(rng, n, n)
		return Equal(Mul(Mul(a, b), c), Mul(a, Mul(b, c)), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: AᵀA is always symmetric.
func TestQuickGramSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k := 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(rng, n, k)
		return Mul(a.T(), a).IsSymmetric(1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
