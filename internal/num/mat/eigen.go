package mat

import (
	"fmt"
	"math"
	"slices"
)

// EigenSym holds the eigendecomposition of a real symmetric matrix:
// A = V diag(Values) Vᵀ, with eigenvalues sorted in descending order and
// Vectors column j holding the eigenvector for Values[j].
type EigenSym struct {
	Values  []float64
	Vectors *Dense // n×n, orthonormal columns
}

// jacobiMaxSweeps bounds the cyclic Jacobi iteration. 64 sweeps is far
// beyond what any well-conditioned covariance matrix of the sizes used
// here (≤ 64×64) needs; reaching it indicates a pathological input.
const jacobiMaxSweeps = 64

// SymEigen computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi rotation method. The input must be symmetric within symTol;
// it is not modified. The method is numerically robust for the small dense
// symmetric matrices (covariance/correlation) this library works with.
func SymEigen(a *Dense, symTol float64) (*EigenSym, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("mat: SymEigen requires a square matrix, got %dx%d", n, c)
	}
	if !a.IsSymmetric(symTol) {
		return nil, fmt.Errorf("mat: SymEigen requires a symmetric matrix (tol %g)", symTol)
	}

	// Work on a row-major copy w and accumulate rotations into v, both
	// indexed directly: the n×n arrays are read and written a few million
	// times, so skipping At/Set's bounds checks is most of the cost.
	w := slices.Clone(a.data)
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	offdiag := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for _, x := range w[i*n+i+1 : (i+1)*n] {
				s += float64(x * x)
			}
		}
		return math.Sqrt(s)
	}

	// Convergence threshold scales with the matrix magnitude so tiny
	// matrices and large ones are handled uniformly.
	scale := a.FrobeniusNorm()
	if scale == 0 {
		// Zero matrix: eigenvalues all zero, vectors identity.
		return sortedEigen(make([]float64, n), v), nil
	}
	tol := 1e-12 * scale

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		if offdiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w[p*n+q]
				if math.Abs(apq) <= tol/float64(n*n) {
					continue
				}
				app := w[p*n+p]
				aqq := w[q*n+q]
				// Compute the rotation that annihilates w[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				cos := 1 / math.Sqrt(1+float64(t*t))
				sin := t * cos

				// Apply rotation J(p,q,θ): w = Jᵀ w J. Columns p and q
				// first (kp walks column p, kq the same row's column q),
				// then rows p and q as contiguous slices.
				for kp := p; kp < len(w); kp += n {
					kq := kp + q - p
					wkp, wkq := w[kp], w[kq]
					w[kp] = float64(cos*wkp) - float64(sin*wkq)
					w[kq] = float64(sin*wkp) + float64(cos*wkq)
				}
				rp, rq := w[p*n:(p+1)*n], w[q*n:(q+1)*n]
				rq = rq[:len(rp)]
				for k, wpk := range rp {
					wqk := rq[k]
					rp[k] = float64(cos*wpk) - float64(sin*wqk)
					rq[k] = float64(sin*wpk) + float64(cos*wqk)
				}
				// Accumulate eigenvectors: v = v J.
				for kp := p; kp < len(v); kp += n {
					kq := kp + q - p
					vkp, vkq := v[kp], v[kq]
					v[kp] = float64(cos*vkp) - float64(sin*vkq)
					v[kq] = float64(sin*vkp) + float64(cos*vkq)
				}
			}
		}
	}

	if offdiag() > tol*10 {
		return nil, fmt.Errorf("mat: Jacobi eigendecomposition did not converge after %d sweeps (offdiag %g, tol %g)",
			jacobiMaxSweeps, offdiag(), tol)
	}

	vals := make([]float64, n)
	for i := range vals {
		vals[i] = w[i*n+i]
	}
	return sortedEigen(vals, v), nil
}

// sortedEigen orders eigenpairs by descending eigenvalue and fixes the sign
// convention (largest-magnitude component of each eigenvector is positive)
// so results are deterministic across runs. vecs is the row-major n×n
// matrix whose column j is the eigenvector of vals[j].
func sortedEigen(vals, vecs []float64) *EigenSym {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case vals[a] > vals[b]:
			return -1
		case vals[a] < vals[b]:
			return 1
		}
		return 0
	})

	outVals := make([]float64, n)
	outVecs := NewDense(n, n)
	for j, src := range idx {
		outVals[j] = vals[src]
		// Sign convention.
		maxAbs, sign := 0.0, 1.0
		for i := src; i < len(vecs); i += n {
			x := vecs[i]
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
				if x < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		for i := 0; i < n; i++ {
			outVecs.data[i*n+j] = sign * vecs[i*n+src]
		}
	}
	return &EigenSym{Values: outVals, Vectors: outVecs}
}

// Reconstruct rebuilds V diag(Values) Vᵀ, which should equal the original
// matrix. Used by tests to verify decomposition quality.
func (e *EigenSym) Reconstruct() *Dense {
	n := len(e.Values)
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, e.Values[i])
	}
	return Mul(Mul(e.Vectors, d), e.Vectors.T())
}
