package linalg

import "math"

// Tridiag is a symmetric tridiagonal matrix: Diag has length k and
// Off has length k-1 (Off[i] couples rows i and i+1). Lanczos reduces
// the sparse symmetric walk operator to this form; its eigenvalues
// approximate the extremal eigenvalues of the original operator.
type Tridiag struct {
	Diag []float64
	Off  []float64
}

// Dim returns the matrix dimension.
func (t *Tridiag) Dim() int { return len(t.Diag) }

// gershgorinBounds returns an interval certain to contain all
// eigenvalues.
func (t *Tridiag) gershgorinBounds() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range t.Diag {
		r := 0.0
		if i > 0 {
			r += math.Abs(t.Off[i-1])
		}
		if i < len(t.Off) {
			r += math.Abs(t.Off[i])
		}
		if t.Diag[i]-r < lo {
			lo = t.Diag[i] - r
		}
		if t.Diag[i]+r > hi {
			hi = t.Diag[i] + r
		}
	}
	return lo, hi
}

// CountBelow returns the number of eigenvalues strictly less than x,
// via the Sturm sequence of leading principal minors evaluated with
// the stable recurrence d_i = (a_i - x) - b_{i-1}² / d_{i-1}.
func (t *Tridiag) CountBelow(x float64) int {
	count := 0
	d := 1.0
	for i := range t.Diag {
		if i == 0 {
			d = t.Diag[0] - x
		} else {
			if d == 0 {
				d = 1e-300 // perturb to avoid division by zero
			}
			d = (t.Diag[i] - x) - t.Off[i-1]*t.Off[i-1]/d
		}
		if d < 0 {
			count++
		}
	}
	return count
}

// Eigenvalue returns the i-th smallest eigenvalue (0-based) to within
// tol, by bisection on the Sturm count. tol <= 0 defaults to 1e-12
// relative to the spectral range.
func (t *Tridiag) Eigenvalue(i int, tol float64) float64 {
	lo, hi := t.gershgorinBounds()
	if tol <= 0 {
		tol = 1e-12 * math.Max(1, hi-lo)
	}
	// Invariant: count(lo) <= i < count(hi).
	lo -= tol
	hi += tol
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if t.CountBelow(mid) <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// Extremes returns the smallest and largest eigenvalues, bit for bit
// as Eigenvalue(0, tol) and Eigenvalue(k−1, tol) return them: each
// side keeps Eigenvalue's bracket, midpoints, tolerance and stopping
// rule. The two bisections run in lockstep, so one pass over the
// diagonal evaluates both Sturm counts as independent recurrences.
func (t *Tridiag) Extremes(tol float64) (min, max float64) {
	top := t.Dim() - 1
	lo, hi := t.gershgorinBounds()
	if tol <= 0 {
		tol = 1e-12 * math.Max(1, hi-lo)
	}
	// Invariants: count(minLo) <= 0 < count(minHi) and
	// count(maxLo) <= top < count(maxHi).
	minLo, minHi := lo-tol, hi+tol
	maxLo, maxHi := minLo, minHi
	for minHi-minLo > tol || maxHi-maxLo > tol {
		minMid, maxMid := minLo+(minHi-minLo)/2, maxLo+(maxHi-maxLo)/2
		cMin, cMax := t.countBelow2(minMid, maxMid)
		// A side that has met the tolerance keeps its bracket; its
		// count is computed but unused.
		if minHi-minLo > tol {
			if cMin <= 0 {
				minLo = minMid
			} else {
				minHi = minMid
			}
		}
		if maxHi-maxLo > tol {
			if cMax <= top {
				maxLo = maxMid
			} else {
				maxHi = maxMid
			}
		}
	}
	return minLo + (minHi-minLo)/2, maxLo + (maxHi-maxLo)/2
}

// countBelow2 is CountBelow at two points in one pass: the two Sturm
// recurrences are independent, so they overlap in the pipeline, and
// each performs exactly CountBelow's operations.
func (t *Tridiag) countBelow2(x, y float64) (cx, cy int) {
	dx, dy := 1.0, 1.0
	for i, a := range t.Diag {
		if i == 0 {
			dx, dy = a-x, a-y
		} else {
			if dx == 0 {
				dx = 1e-300
			}
			if dy == 0 {
				dy = 1e-300
			}
			b2 := t.Off[i-1] * t.Off[i-1]
			dx = (a - x) - b2/dx
			dy = (a - y) - b2/dy
		}
		if dx < 0 {
			cx++
		}
		if dy < 0 {
			cy++
		}
	}
	return cx, cy
}

// EigenvectorFor returns a unit eigenvector for the eigenvalue of the
// tridiagonal closest to theta, by inverse iteration: each step solves
// the nearly singular system (T − θI)y = x, which amplifies the
// wanted eigenvector component by 1/dist(θ, λ) relative to every
// other. With theta accurate to working precision (the bisection
// output), a handful of O(k) solves converge; Lanczos combines the
// result through its stored basis to recover the Ritz vector.
func (t *Tridiag) EigenvectorFor(theta float64) []float64 {
	k := t.Dim()
	x := make([]float64, k)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(k))
	}
	y := make([]float64, k)
	for iter := 0; iter < 4; iter++ {
		t.solveShifted(theta, x, y)
		norm := Norm2(y)
		if norm == 0 || math.IsInf(norm, 0) || math.IsNaN(norm) {
			break
		}
		Scale(y, 1/norm)
		aligned := math.Abs(math.Abs(Dot(x, y))-1) < 1e-13
		copy(x, y)
		if aligned {
			break
		}
	}
	return x
}

// solveShifted solves (T − θI)y = b by Gaussian elimination with
// partial pivoting on the tridiagonal band (fill-in is one extra
// superdiagonal). Exact zero pivots — θ hitting an eigenvalue of a
// leading principal submatrix — are perturbed, which is the standard
// inverse-iteration safeguard: the solution direction is what matters,
// not its magnitude.
func (t *Tridiag) solveShifted(theta float64, b, y []float64) {
	k := t.Dim()
	// Band storage: d = main diagonal, e = first superdiagonal,
	// f = second superdiagonal (created by row swaps).
	d := make([]float64, k)
	e := make([]float64, k)
	f := make([]float64, k)
	copy(y, b)
	for i := 0; i < k; i++ {
		d[i] = t.Diag[i] - theta
		if i < k-1 {
			e[i] = t.Off[i]
		}
	}
	sub := make([]float64, k) // subdiagonal entries still to eliminate
	for i := 0; i < k-1; i++ {
		sub[i+1] = t.Off[i]
	}
	for i := 0; i < k-1; i++ {
		if math.Abs(sub[i+1]) > math.Abs(d[i]) {
			d[i], sub[i+1] = sub[i+1], d[i]
			e[i], d[i+1] = d[i+1], e[i]
			f[i], e[i+1] = e[i+1], f[i]
			y[i], y[i+1] = y[i+1], y[i]
		}
		if d[i] == 0 {
			d[i] = 1e-300
		}
		m := sub[i+1] / d[i]
		d[i+1] -= m * e[i]
		e[i+1] -= m * f[i]
		y[i+1] -= m * y[i]
	}
	if d[k-1] == 0 {
		d[k-1] = 1e-300
	}
	// Back substitution over the three stored bands.
	for i := k - 1; i >= 0; i-- {
		s := y[i]
		if i+1 < k {
			s -= e[i] * y[i+1]
		}
		if i+2 < k {
			s -= f[i] * y[i+2]
		}
		y[i] = s / d[i]
	}
}
