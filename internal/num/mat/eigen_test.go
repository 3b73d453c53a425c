package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	e, err := SymEigen(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Errorf("Values = %v, want [3 1]", e.Values)
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	e, err := SymEigen(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Errorf("Values = %v, want [3 1]", e.Values)
	}
	// Eigenvector for 3 is (1,1)/sqrt(2).
	v := e.Vectors.Col(0)
	if math.Abs(math.Abs(v[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v[0]-v[1]) > 1e-10 {
		t.Errorf("first eigenvector = %v", v)
	}
}

func TestSymEigenSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSymmetric(rng, 8)
	e, err := SymEigen(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(e.Values); i++ {
		if e.Values[i] > e.Values[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", e.Values)
		}
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(NewDense(2, 3), 1e-9); err == nil {
		t.Error("expected error for non-square input")
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {5, 1}})
	if _, err := SymEigen(a, 1e-9); err == nil {
		t.Error("expected error for asymmetric input")
	}
}

func TestSymEigenZeroMatrix(t *testing.T) {
	e, err := SymEigen(NewDense(4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Errorf("zero matrix eigenvalue %v, want 0", v)
		}
	}
	if !Equal(e.Vectors, Identity(4), 0) {
		t.Error("zero matrix eigenvectors should be identity")
	}
}

func randomSymmetric(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// Property: reconstruction V Λ Vᵀ equals the input.
func TestQuickEigenReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomSymmetric(rng, n)
		e, err := SymEigen(a, 1e-12)
		if err != nil {
			return false
		}
		return Equal(e.Reconstruct(), a, 1e-8*(1+a.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvectors are orthonormal (VᵀV = I).
func TestQuickEigenOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomSymmetric(rng, n)
		e, err := SymEigen(a, 1e-12)
		if err != nil {
			return false
		}
		return Equal(Mul(e.Vectors.T(), e.Vectors), Identity(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: trace equals sum of eigenvalues.
func TestQuickEigenTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomSymmetric(rng, n)
		e, err := SymEigen(a, 1e-12)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += e.Values[i]
		}
		return math.Abs(trace-sum) < 1e-8*(1+math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: A v = λ v for every eigenpair.
func TestQuickEigenPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSymmetric(rng, n)
		e, err := SymEigen(a, 1e-12)
		if err != nil {
			return false
		}
		for j := 0; j < n; j++ {
			v := e.Vectors.Col(j)
			av := a.MulVec(v)
			for i := range av {
				if math.Abs(av[i]-e.Values[j]*v[i]) > 1e-7*(1+a.MaxAbs()) {
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

func TestVectorOps(t *testing.T) {
	a := []float64{3, 4}
	if got := Norm(a); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Dot(a, []float64{1, 2}); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := Distance([]float64{0, 0}, a); math.Abs(got-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := SquaredDistance([]float64{0, 0}, a); math.Abs(got-25) > 1e-12 {
		t.Errorf("SquaredDistance = %v, want 25", got)
	}
	y := []float64{1, 1}
	AXPY(2, a, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v, want [7 9]", y)
	}
	v := []float64{3, 4}
	if !Normalize(v) || math.Abs(Norm(v)-1) > 1e-12 {
		t.Errorf("Normalize failed: %v", v)
	}
	z := []float64{0, 0}
	if Normalize(z) {
		t.Error("Normalize of zero vector should report false")
	}
}

func TestVectorMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Dot":             func() { Dot([]float64{1}, []float64{1, 2}) },
		"Distance":        func() { Distance([]float64{1}, []float64{1, 2}) },
		"SquaredDistance": func() { SquaredDistance([]float64{1}, []float64{1, 2}) },
		"AXPY":            func() { AXPY(1, []float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// symEigenReference is SymEigen as it was before the Jacobi rotations
// indexed the arrays directly: every element goes through At/Set, and the
// eigenvector columns are copied out with Col. SymEigen must agree with it
// bit for bit; it is not used on any production path.
func symEigenReference(a *Dense) *EigenSym {
	n, _ := a.Dims()
	w := a.Clone()
	v := Identity(n)

	offdiag := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				x := w.At(i, j)
				s += float64(x * x)
			}
		}
		return math.Sqrt(s)
	}

	scale := w.FrobeniusNorm()
	if scale == 0 {
		return sortedEigenReference(make([]float64, n), v)
	}
	tol := 1e-12 * scale

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		if offdiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= tol/float64(n*n) {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				cos := 1 / math.Sqrt(1+float64(t*t))
				sin := t * cos

				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, float64(cos*wkp)-float64(sin*wkq))
					w.Set(k, q, float64(sin*wkp)+float64(cos*wkq))
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, float64(cos*wpk)-float64(sin*wqk))
					w.Set(q, k, float64(sin*wpk)+float64(cos*wqk))
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, float64(cos*vkp)-float64(sin*vkq))
					v.Set(k, q, float64(sin*vkp)+float64(cos*vkq))
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	return sortedEigenReference(vals, v)
}

func sortedEigenReference(vals []float64, vecs *Dense) *EigenSym {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })

	outVals := make([]float64, n)
	outVecs := NewDense(n, n)
	for j, src := range idx {
		outVals[j] = vals[src]
		col := vecs.Col(src)
		maxAbs, sign := 0.0, 1.0
		for _, x := range col {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
				if x < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		for i, x := range col {
			outVecs.Set(i, j, sign*x)
		}
	}
	return &EigenSym{Values: outVals, Vectors: outVecs}
}

// eigenBitsEqual fails t unless got and want hold the same bits in every
// eigenvalue and every eigenvector component.
func eigenBitsEqual(t *testing.T, name string, got, want *EigenSym) {
	t.Helper()
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("%s: value %d = %v, reference %v", name, i, got.Values[i], want.Values[i])
		}
	}
	for i := range want.Vectors.data {
		if math.Float64bits(got.Vectors.data[i]) != math.Float64bits(want.Vectors.data[i]) {
			t.Fatalf("%s: vector entry %d = %v, reference %v", name, i, got.Vectors.data[i], want.Vectors.data[i])
		}
	}
}

// wideCovariance returns the 45×45 covariance of the z-scored columns of
// a 1024×45 matrix shaped like the wide analysis input: 32 base rows whose
// columns span six orders of magnitude, each replicated 32 times with
// multiplicative 1 + 0.08·N(0,1) noise.
func wideCovariance() *Dense {
	const baseRows, replicas, cols = 32, 32, 45
	const rows = baseRows * replicas
	r := rng.New(20140926)
	base := make([][]float64, baseRows)
	scale := make([]float64, cols)
	for j := range scale {
		scale[j] = math.Pow(10, 6*r.Float64()-3)
	}
	for i := range base {
		base[i] = make([]float64, cols)
		for j := range base[i] {
			base[i][j] = scale[j] * (0.5 + r.Float64())
		}
	}
	m := NewDense(rows, cols)
	for rep := 0; rep < replicas; rep++ {
		for i, row := range base {
			for j, x := range row {
				m.Set(rep*baseRows+i, j, x*(1+0.08*r.NormFloat64()))
			}
		}
	}
	for j := 0; j < cols; j++ {
		mean := 0.0
		for i := 0; i < rows; i++ {
			mean += m.At(i, j)
		}
		mean /= float64(rows)
		ss := 0.0
		for i := 0; i < rows; i++ {
			d := m.At(i, j) - mean
			ss += float64(d * d)
		}
		sd := math.Sqrt(ss / float64(rows))
		for i := 0; i < rows; i++ {
			m.Set(i, j, (m.At(i, j)-mean)/sd)
		}
	}
	cov := NewDense(cols, cols)
	for a := 0; a < cols; a++ {
		for b := a; b < cols; b++ {
			s := 0.0
			for i := 0; i < rows; i++ {
				s += float64(m.At(i, a) * m.At(i, b))
			}
			cov.Set(a, b, s/float64(rows))
			cov.Set(b, a, s/float64(rows))
		}
	}
	return cov
}

// TestSymEigenMatchesReference checks that the directly indexed Jacobi
// iteration reproduces the At/Set one bit for bit: on random symmetric
// matrices of every size the pipeline can meet, on the zero matrix, and
// on the covariance of a wide analysis input.
func TestSymEigenMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(50))
	for _, n := range []int{1, 2, 3, 8, 45, 64} {
		for trial := 0; trial < 4; trial++ {
			a := randomSymmetric(rnd, n)
			got, err := SymEigen(a, 1e-12)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			eigenBitsEqual(t, "random", got, symEigenReference(a))
		}
	}
	zero := NewDense(5, 5)
	got, err := SymEigen(zero, 0)
	if err != nil {
		t.Fatal(err)
	}
	eigenBitsEqual(t, "zero", got, symEigenReference(zero))

	cov := wideCovariance()
	got, err = SymEigen(cov, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	eigenBitsEqual(t, "wide covariance", got, symEigenReference(cov))
}

// TestSymEigenAllocs pins SymEigen's allocations at a 45×45 input to a
// fixed handful — the work copy, the rotation accumulator, the eigenvalues
// and the sorted output — independent of n and of the sweep count.
func TestSymEigenAllocs(t *testing.T) {
	cov := wideCovariance()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SymEigen(cov, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("SymEigen(45×45) made %.0f allocations, want ≤ 8", allocs)
	}
}

// BenchmarkSymEigen45 times the eigendecomposition PCA runs on a wide
// analysis: the 45×45 covariance of 1024 z-scored rows.
func BenchmarkSymEigen45(b *testing.B) {
	cov := wideCovariance()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := SymEigen(cov, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
