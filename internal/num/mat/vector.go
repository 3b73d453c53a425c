package mat

import (
	"fmt"
	"math"
)

// Dot returns the dot product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(lengthError{"Dot", len(a), len(b)})
	}
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// lengthError is the panic value of Dot, Distance and SquaredDistance:
// formatting it lazily keeps them small enough to inline. Their products
// are rounded explicitly (float64(x*y)), so an inlined copy fuses no
// multiply-add into the caller on architectures that have one.
type lengthError struct {
	op   string
	a, b int
}

func (e lengthError) Error() string {
	return fmt.Sprintf("mat: %s length mismatch %d vs %d", e.op, e.a, e.b)
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// Distance returns the Euclidean distance between a and b.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(lengthError{"Distance", len(a), len(b)})
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// SquaredDistance returns the squared Euclidean distance between a and b.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(lengthError{"SquaredDistance", len(a), len(b)})
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: AXPY length mismatch")
	}
	for i := range x {
		y[i] += float64(alpha * x[i])
	}
}

// ScaleVec multiplies v by s in place.
func ScaleVec(s float64, v []float64) {
	for i := range v {
		v[i] *= s
	}
}

// Normalize scales v to unit L2 norm in place. Zero vectors are left
// unchanged and reported via the return value.
func Normalize(v []float64) bool {
	n := Norm(v)
	if n == 0 {
		return false
	}
	ScaleVec(1/n, v)
	return true
}
