package spectral

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"mixtime/internal/graph"
	"mixtime/internal/linalg"
	"mixtime/internal/telemetry"
)

// lanczosRun is what one Lanczos process leaves behind: the
// tridiagonal projection of S onto the Krylov space and the basis
// that spans it.
type lanczosRun struct {
	tri   *linalg.Tridiag
	basis [][]float64
	steps int
	// converged reports that the extreme Ritz values settled (only
	// checked when the run was asked to converge) or that the Krylov
	// space was exhausted, making the tridiagonal spectrum exact.
	converged bool
	warm      bool
}

// lanczos runs the symmetric Lanczos process on S, started orthogonal
// to the known top eigenvector v₁ and kept that way by full
// reorthogonalization (against v₁ and the whole Krylov basis —
// numerically mandatory, or ghost copies of λ₁ reappear). The start
// vector is opt.Start when its length is the operator dimension, else
// a random unit vector drawn from the PCG stream (opt.Seed, stream).
//
// With converge set the run stops once both extreme Ritz values have
// moved less than opt.Tol between consecutive steps over a 3-step
// window; without it the run uses its whole step budget (opt.MaxIter,
// capped by n−1 and by memory). Either way it stops early when the
// Krylov space is exhausted. opt must already carry its defaults. The
// loop checks ctx once per step (each step is an O(m) matvec plus
// reorthogonalization) and returns the wrapped ctx.Err().
func lanczos(ctx context.Context, op *Operator, opt Options, stream uint64, converge bool) (*lanczosRun, error) {
	if opt.Collector != nil && op.col == nil {
		op.SetCollector(opt.Collector)
	}
	n := op.Dim()
	if n < 2 {
		return nil, errors.New("spectral: graph too small for SLEM")
	}
	maxK := lanczosSteps(opt.MaxIter, n)

	rng := rand.New(rand.NewPCG(opt.Seed, stream))
	basis := make([][]float64, 0, 16)
	alpha := make([]float64, 0, 16)
	beta := make([]float64, 0, 16) // beta[i] couples basis[i], basis[i+1]

	q := make([]float64, n)
	warm := len(opt.Start) == n
	if warm {
		copy(q, opt.Start)
		opt.Collector.Add(telemetry.EvolveWarmStarts, 1)
	} else {
		randomUnit(q, rng)
	}
	op.Deflate(q)
	if linalg.Normalize(q) < 1e-12 {
		// A degenerate warm start (deflation residue parallel to v₁)
		// falls back to the cold random start; only a degenerate random
		// vector is a hard error. A deflated random unit vector has
		// norm ≈ 1, so the cold path never takes this branch.
		if !warm {
			return nil, errors.New("spectral: degenerate start vector")
		}
		warm = false
		randomUnit(q, rng)
		op.Deflate(q)
		if linalg.Normalize(q) == 0 {
			return nil, errors.New("spectral: degenerate start vector")
		}
	}
	basis = append(basis, q)

	w := make([]float64, n)
	scratch := make([]float64, n)
	var prevLo, prevHi float64
	stable := 0
	iters := 0
	converged := false
	// One add per run, whatever exit path the loop takes.
	defer func() { opt.Collector.Add(telemetry.LanczosIterations, int64(iters)) }()

	for k := 0; k < maxK; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("spectral: Lanczos cancelled at step %d: %w", k, err)
		}
		iters++
		op.ApplyParallel(w, basis[k], scratch, opt.Workers)
		a := linalg.Dot(basis[k], w)
		alpha = append(alpha, a)

		// w ← w − a·q_k − β_{k-1}·q_{k-1}, then full reorthogonalization.
		d := op.residual(w, basis, a, beta)

		if converge {
			// Convergence check on the current tridiagonal extremes.
			tri := &linalg.Tridiag{Diag: alpha, Off: beta}
			lo, hi := tri.Extremes(opt.Tol / 10)
			if k > 0 && math.Abs(lo-prevLo) < opt.Tol && math.Abs(hi-prevHi) < opt.Tol {
				stable++
				if stable >= 3 {
					converged = true
					break
				}
			} else {
				stable = 0
			}
			prevLo, prevHi = lo, hi
		}

		b := math.Sqrt(d) // ‖w‖
		if b < 1e-14 {
			// Krylov space exhausted: the tridiagonal spectrum is exact.
			converged = true
			break
		}
		beta = append(beta, b)
		// w becomes the next basis vector; the next matvec writes a
		// fresh one.
		linalg.Scale(w, 1/b)
		basis = append(basis, w)
		w = make([]float64, n)
	}
	return &lanczosRun{
		tri:       &linalg.Tridiag{Diag: alpha, Off: beta[:len(alpha)-1]},
		basis:     basis,
		steps:     iters,
		converged: converged,
		warm:      warm,
	}, nil
}

// residual turns w = S·q_k, with q_k the last of basis, into the next
// Lanczos residual and returns ‖w‖²: w ← w − a·q_k − β_{k−1}·q_{k−1}
// (no β term at k = 0), deflated against v₁, then reorthogonalized by
// modified Gram–Schmidt over the basis in order. Each AxpyDot sweep
// carries the dot the next one subtracts: the recurrence carries v₁·w,
// the deflation q₀·w, each q_j's sweep q_{j+1}·w and the last one
// ‖w‖², for k+4 passes over w. Every element sees the operations of
// separate Axpy and Dot calls in their order, so no sum is
// reassociated and no bit moves. Keep the chain out of lanczos:
// inlined there, the sweep loop ran short of registers and spilled its
// index to the stack on every element, which cost nearly half of the
// fusion's gain.
func (op *Operator) residual(w []float64, basis [][]float64, a float64, beta []float64) float64 {
	k := len(basis) - 1
	var d float64
	if k > 0 {
		linalg.Axpy(-a, basis[k], w)
		d = linalg.AxpyDot(-beta[k-1], basis[k-1], w, op.v1)
	} else {
		d = linalg.AxpyDot(-a, basis[k], w, op.v1)
	}
	d = linalg.AxpyDot(-d, op.v1, w, basis[0])
	for j, q := range basis {
		next := w
		if j+1 < len(basis) {
			next = basis[j+1]
		}
		d = linalg.AxpyDot(-d, q, w, next)
	}
	return d
}

// lanczosSteps caps a Lanczos run on n nodes at maxIter steps, at the
// n−1 dimensions of v₁⊥, and at the steps whose stored basis
// (8·n bytes per vector) fits in ~2 GiB — 268 at a million nodes —
// so that a huge graph falls back to the O(n)-memory power iteration
// (Solve) instead of exhausting memory. At least one step always
// runs, so the tridiagonal is never empty.
func lanczosSteps(maxIter, n int) int {
	budget := int(2 << 30 / (8 * int64(n)))
	return max(1, min(maxIter, n-1, budget))
}

// slemLanczos estimates µ from the extreme eigenvalues of the Lanczos
// tridiagonal, found by Sturm bisection. They approximate λ₂ and λ_n
// from the inside, converging far faster than power iteration when
// the spectral gap is small, which is exactly the slow-mixing regime
// this project measures. Memory is O(k·n) for the stored basis;
// Options.MaxIter caps k (default 500).
func slemLanczos(ctx context.Context, op *Operator, opt Options) (*Estimate, error) {
	opt = opt.withDefaults(500)
	run, err := lanczos(ctx, op, opt, 0x1a9c, true)
	if err != nil {
		return nil, err
	}
	lambdaN, lambda2 := run.tri.Extremes(opt.Tol / 10)
	// Ritz vector for λ₂: the tridiagonal eigenvector for the top Ritz
	// value, combined through the stored Krylov basis. This is what the
	// evolving-graph tracker feeds back as the next epoch's Start.
	var vec2 []float64
	if y := run.tri.EigenvectorFor(lambda2); len(y) <= len(run.basis) {
		vec2 = make([]float64, op.Dim())
		for i, c := range y {
			linalg.Axpy(c, run.basis[i], vec2)
		}
		if linalg.Normalize(vec2) == 0 {
			vec2 = nil
		}
	}
	return &Estimate{
		Mu:          math.Max(math.Abs(lambda2), math.Abs(lambdaN)),
		Lambda2:     lambda2,
		LambdaN:     lambdaN,
		Iterations:  run.steps,
		Iters2:      run.steps,
		Converged:   run.converged,
		WarmStarted: run.warm,
		Vector2:     vec2,
	}, nil
}

// Solve estimates µ for op, unweighted or weighted. It runs Lanczos
// and, when Lanczos does not converge within its step budget, falls
// back to deflated power iteration on the same operator; the power
// estimate is returned only if it converges, otherwise the
// unconverged Lanczos estimate is. Both stages check ctx at every
// iteration, and a cancelled solve returns an error wrapping
// ctx.Err().
func Solve(ctx context.Context, op *Operator, opt Options) (*Estimate, error) {
	est, err := slemLanczos(ctx, op, opt)
	if err != nil {
		return nil, err
	}
	if est.Converged {
		return est, nil
	}
	opt.Collector.Add(telemetry.Restarts, 1)
	pow, err := slemPower(ctx, op, opt)
	if err != nil {
		// A cancelled fallback must surface rather than be swallowed
		// as an "unconverged but usable" estimate.
		if cerr := ctx.Err(); cerr != nil {
			return nil, err
		}
		return est, nil // keep the (unconverged) Lanczos estimate
	}
	if !pow.Converged {
		return est, nil
	}
	return pow, nil
}

// SLEMContext estimates µ of g's random walk: Solve on the operator
// NewOperator builds for g. This is the entry point the experiment
// drivers use.
func SLEMContext(ctx context.Context, g *graph.Graph, opt Options) (*Estimate, error) {
	op, err := NewOperator(g)
	if err != nil {
		return nil, err
	}
	return Solve(ctx, op, opt)
}

// Profile returns the k largest eigenvalues of P below λ₁ = 1
// (λ₂ ≥ λ₃ ≥ … ≥ λ_{k+1}), estimated from the Lanczos tridiagonal
// with the deflated start. The count of eigenvalues near 1 is the
// spectral community count: a graph with c strong communities has
// c−1 eigenvalues close to 1, which is why slow mixing and community
// structure are the same observation (§3.2/§5 of the paper).
// Options.Start is ignored: the run always starts cold.
func Profile(g *graph.Graph, k int, opt Options) ([]float64, error) {
	op, err := NewOperator(g)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults(500)
	opt.Start = nil
	if k < 1 {
		k = 1
	}
	// Interior Ritz values need a larger Krylov space than the
	// extremes; give the solver headroom and run it to the end.
	if opt.MaxIter < 6*k {
		opt.MaxIter = 6 * k
	}
	run, err := lanczos(context.TODO(), op, opt, 0x1a9d, false)
	if err != nil {
		return nil, err
	}
	dim := run.tri.Dim()
	if k > dim {
		k = dim
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = run.tri.Eigenvalue(dim-1-i, opt.Tol/10)
	}
	return out, nil
}
