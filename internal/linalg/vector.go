// Package linalg provides the small amount of numerical linear algebra
// the project needs, implemented from scratch on the standard library:
// dense vector primitives, a dense symmetric (Jacobi) eigensolver used
// to cross-validate sparse methods, and Sturm-sequence bisection for
// the eigenvalues of symmetric tridiagonal matrices produced by the
// Lanczos process.
package linalg

import "math"

// Dot returns the inner product of x and y. The slices must have equal
// length.
func Dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Scale multiplies x by a in place.
func Scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

// Normalize scales x to unit Euclidean norm in place and returns the
// original norm. A zero vector is left unchanged.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	Scale(x, 1/n)
	return n
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// AxpyDot computes y += a*x in place and returns Σ z[i]·y[i] over the
// updated y, in one pass; z may be y, which returns ‖y‖². Every
// element sees Axpy's update and the sum accumulates in Dot's order,
// so the result is bit-identical to Axpy(a, x, y) followed by
// Dot(z, y). A chain of these sweeps, each carrying the dot the next
// one needs, is how Lanczos reorthogonalizes at one pass per vector.
func AxpyDot(a float64, x, y, z []float64) float64 {
	y, z = y[:len(x)], z[:len(x)]
	var s float64
	for i, v := range x {
		t := y[i] + a*v
		y[i] = t
		s += z[i] * t
	}
	return s
}

// OrthogonalizeAgainst removes from x its component along the unit
// vector q: x -= (q·x) q.
func OrthogonalizeAgainst(x, q []float64) {
	Axpy(-Dot(q, x), q, x)
}
