package linalg

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy -> %v", y)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{0, 3, 4}
	n := Normalize(x)
	if n != 5 || !almostEq(Norm2(x), 1, 1e-15) {
		t.Fatalf("Normalize: n=%v x=%v", n, x)
	}
	zero := []float64{0, 0}
	if Normalize(zero) != 0 {
		t.Fatal("zero vector norm")
	}
}

func TestOrthogonalize(t *testing.T) {
	q := []float64{1, 0, 0}
	x := []float64{5, 2, 1}
	OrthogonalizeAgainst(x, q)
	if !almostEq(Dot(x, q), 0, 1e-15) {
		t.Fatalf("residual dot %v", Dot(x, q))
	}
	if x[1] != 2 || x[2] != 1 {
		t.Fatal("orthogonalization disturbed orthogonal components")
	}
}

// TestAxpyDotMatchesAxpyThenDot: the fused sweep must leave y and
// return the dot bit for bit as Axpy followed by Dot does, with z
// distinct from y and with z aliasing y. Entries span several orders
// of magnitude so that any reordering of the sum would round
// differently.
func TestAxpyDotMatchesAxpyThenDot(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(9)-4))
		}
		return v
	}
	for _, n := range []int{0, 1, 7, 1000} {
		for _, alias := range []bool{false, true} {
			a := rng.NormFloat64()
			x, y, z := vec(n), vec(n), vec(n)
			want := append([]float64(nil), y...)
			Axpy(a, x, want)
			wantZ := z
			if alias {
				wantZ = want
			}
			wantDot := Dot(wantZ, want)
			if alias {
				z = y
			}
			got := AxpyDot(a, x, y, z)
			if math.Float64bits(got) != math.Float64bits(wantDot) {
				t.Errorf("n=%d alias=%v: dot %v, Axpy then Dot %v", n, alias, got, wantDot)
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d alias=%v: y[%d] = %v, Axpy gives %v", n, alias, i, y[i], want[i])
				}
			}
		}
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := NewSymDense(3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 2)
	vals, _, err := EigenSym(a, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-12) {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestEigenSym2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3 with vectors (1,-1)/√2,
	// (1,1)/√2.
	a := NewSymDense(2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 2)
	a.Set(0, 1, 1)
	vals, vecs, err := EigenSym(a, true)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 1, 1e-12) || !almostEq(vals[1], 3, 1e-12) {
		t.Fatalf("vals = %v", vals)
	}
	// Check A v = λ v for each column.
	for k := 0; k < 2; k++ {
		for r := 0; r < 2; r++ {
			av := a.At(r, 0)*vecs.At(0, k) + a.At(r, 1)*vecs.At(1, k)
			if !almostEq(av, vals[k]*vecs.At(r, k), 1e-12) {
				t.Fatalf("eigvec %d fails residual", k)
			}
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := NewSymDense(2)
	a.Data[0*2+1] = 1 // set only one triangle
	if _, _, err := EigenSym(a, false); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

// Property: for random symmetric matrices, Jacobi eigenvalues satisfy
// trace and Frobenius identities, and eigenvectors reconstruct A.
func TestQuickEigenSym(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 2 + int(seed%8)
		a := NewSymDense(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		vals, vecs, err := EigenSym(a, true)
		if err != nil {
			return false
		}
		var trace, frob, valSum, valSq float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			for j := 0; j < n; j++ {
				frob += a.At(i, j) * a.At(i, j)
			}
		}
		for _, v := range vals {
			valSum += v
			valSq += v * v
		}
		if !almostEq(trace, valSum, 1e-9) || !almostEq(frob, valSq, 1e-8) {
			return false
		}
		// Reconstruct A = V Λ Vᵀ.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += vecs.At(i, k) * vals[k] * vecs.At(j, k)
				}
				if !almostEq(s, a.At(i, j), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// eigenvalues returns all eigenvalues of tr in ascending order, each
// to within tol, by one Eigenvalue bisection per index: the oracle
// Extremes and the Jacobi cross-check are held to.
func eigenvalues(tr *Tridiag, tol float64) []float64 {
	vals := make([]float64, tr.Dim())
	for i := range vals {
		vals[i] = tr.Eigenvalue(i, tol)
	}
	return vals
}

func TestTridiagKnownSpectrum(t *testing.T) {
	// The k×k tridiagonal with diag 0 and offdiag 1 has eigenvalues
	// 2·cos(πj/(k+1)), j = 1..k.
	k := 9
	tr := &Tridiag{Diag: make([]float64, k), Off: make([]float64, k-1)}
	for i := range tr.Off {
		tr.Off[i] = 1
	}
	vals := eigenvalues(tr, 1e-12)
	for j := 1; j <= k; j++ {
		want := 2 * math.Cos(math.Pi*float64(k+1-j)/float64(k+1))
		if !almostEq(vals[j-1], want, 1e-10) {
			t.Fatalf("eigenvalue %d = %v, want %v", j-1, vals[j-1], want)
		}
	}
	min, max := tr.Extremes(1e-12)
	if !almostEq(min, vals[0], 1e-10) || !almostEq(max, vals[k-1], 1e-10) {
		t.Fatal("Extremes disagrees with eigenvalues")
	}
}

func TestTridiagCountBelow(t *testing.T) {
	tr := &Tridiag{Diag: []float64{1, 2, 3}, Off: []float64{0, 0}}
	cases := []struct {
		x    float64
		want int
	}{{0.5, 0}, {1.5, 1}, {2.5, 2}, {3.5, 3}}
	for _, c := range cases {
		if got := tr.CountBelow(c.x); got != c.want {
			t.Fatalf("CountBelow(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestExtremesMatchesEigenvalue: the lockstep bisection must return
// exactly Eigenvalue(0, tol) and Eigenvalue(k−1, tol). The matrices
// include zero off-diagonals, whose Sturm recurrences hit d == 0 at
// dyadic midpoints and take the perturbation path, repeated
// eigenvalues, and tol <= 0 (the relative default).
func TestExtremesMatchesEigenvalue(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 2))
	random := func(k int, zeroEvery int) *Tridiag {
		tr := &Tridiag{Diag: make([]float64, k), Off: make([]float64, k-1)}
		for i := range tr.Diag {
			tr.Diag[i] = rng.NormFloat64()
		}
		for i := range tr.Off {
			if zeroEvery == 0 || i%zeroEvery != 0 {
				tr.Off[i] = rng.NormFloat64()
			}
		}
		return tr
	}
	cases := []struct {
		name string
		tr   *Tridiag
	}{
		{"zero 3x3", &Tridiag{Diag: []float64{0, 0, 0}, Off: []float64{0, 0}}},
		{"repeated diagonal", &Tridiag{Diag: []float64{2, 2, -1, 2}, Off: []float64{0, 0, 0}}},
		{"repeated, coupled", &Tridiag{Diag: []float64{1, 1, 1, 1}, Off: []float64{1, 0, 1}}},
		{"integer diagonal", &Tridiag{Diag: []float64{0, 1, -1, 0.5}, Off: []float64{0, 0.5, 0}}},
	}
	for _, k := range []int{1, 2, 3, 60} {
		for rep := 0; rep < 5; rep++ {
			cases = append(cases, struct {
				name string
				tr   *Tridiag
			}{fmt.Sprintf("random k=%d #%d", k, rep), random(k, rep%3)})
		}
	}
	check := func(name string, tr *Tridiag, tol float64) {
		lo, hi := tr.Extremes(tol)
		wantLo, wantHi := tr.Eigenvalue(0, tol), tr.Eigenvalue(tr.Dim()-1, tol)
		if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
			t.Errorf("%s tol=%v: Extremes (%v, %v), Eigenvalue (%v, %v)", name, tol, lo, hi, wantLo, wantHi)
		}
	}
	for _, c := range cases {
		for _, tol := range []float64{1e-9, 1e-13, 0, -1} {
			check(c.name, c.tr, tol)
		}
	}
	// At tol = R/(2^j−2), R the Gershgorin range, both brackets narrow
	// to exactly tol after j halvings in exact arithmetic; rounding
	// then decides, side by side, whether one more step runs. On these
	// matrices the two sides close on different steps, so a lockstep
	// loop that stops with the first side to close, or keeps
	// bisecting a closed one, fails here.
	for _, c := range []struct {
		tr *Tridiag
		j  int
	}{
		{&Tridiag{Diag: []float64{2.125, 0.125, 0.875}, Off: []float64{-0.25, 0.5}}, 20},
		{&Tridiag{Diag: []float64{-0.5, -2.125}, Off: []float64{-1.375}}, 29},
		{&Tridiag{Diag: []float64{-0.75, -1, 0.75, 0.5}, Off: []float64{0.375, -0.25, 1.625}}, 28},
	} {
		lo, hi := c.tr.gershgorinBounds()
		check(fmt.Sprintf("k=%d j=%d", c.tr.Dim(), c.j), c.tr, (hi-lo)/(math.Ldexp(1, c.j)-2))
	}
}

// Property: Sturm bisection agrees with the Jacobi oracle on random
// tridiagonal matrices.
func TestQuickTridiagVsJacobi(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		k := 2 + int(seed%10)
		tr := &Tridiag{Diag: make([]float64, k), Off: make([]float64, k-1)}
		a := NewSymDense(k)
		for i := 0; i < k; i++ {
			tr.Diag[i] = rng.NormFloat64()
			a.Set(i, i, tr.Diag[i])
		}
		for i := 0; i < k-1; i++ {
			tr.Off[i] = rng.NormFloat64()
			a.Set(i, i+1, tr.Off[i])
		}
		want, _, err := EigenSym(a, false)
		if err != nil {
			return false
		}
		got := eigenvalues(tr, 1e-11)
		for i := range want {
			if !almostEq(got[i], want[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
