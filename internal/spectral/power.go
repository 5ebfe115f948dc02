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

// Estimate is the result of a SLEM computation.
type Estimate struct {
	// Mu is the second largest eigenvalue modulus max(|λ₂|, |λ_n|).
	Mu float64
	// Lambda2 and LambdaN are the second largest and the smallest
	// eigenvalues of P.
	Lambda2, LambdaN float64
	// Iterations is the number of operator applications performed.
	Iterations int
	// Iters2 and ItersN split Iterations between the λ₂ and λ_n power
	// phases — the per-phase costs the warm-start comparison in E1
	// reports. Lanczos estimates both extremes from one Krylov space,
	// so there Iters2 carries the step count and ItersN is zero.
	Iters2, ItersN int
	// Converged reports whether the requested tolerance was met.
	Converged bool
	// WarmStarted reports whether the λ₂ phase was seeded from
	// Options.Start rather than a random unit vector.
	WarmStarted bool
	// Vector2 is the (unit, S-basis) eigenvector estimate for λ₂ when
	// the method produces one; it drives the spectral sweep cut.
	Vector2 []float64
}

// Options configures a SLEM estimation.
type Options struct {
	// Tol is the absolute eigenvalue tolerance (default 1e-8).
	Tol float64
	// MaxIter caps operator applications per eigenvalue
	// (default 50_000 for power iteration, 500 for Lanczos steps).
	MaxIter int
	// Seed seeds the random starting vector (default 1).
	Seed uint64
	// Workers shards every matvec across the operator's edge-balanced
	// plan: 0 uses GOMAXPROCS on graphs large enough to amortize the
	// fan-out, 1 forces the sequential kernel, > 1 always shards.
	// Sharding preserves per-row summation order, so estimates are
	// byte-identical for any value.
	Workers int
	// Collector, if non-nil, receives the solver's telemetry: matvecs,
	// edges scanned, power/Lanczos iteration counts and restarts.
	// Counting happens at call granularity, so estimates are
	// byte-identical with or without a collector.
	Collector *telemetry.Collector
	// Start, when its length equals the operator dimension, warm-starts
	// the λ₂ estimation from this vector instead of the seeded random
	// unit vector: power iteration begins its λ₂ phase there, and
	// Lanczos uses it as the first Krylov vector. The intended seed is
	// the previous epoch's Estimate.Vector2 on an evolving graph, where
	// the eigenvector drifts slowly and most of the iteration budget
	// would be spent rediscovering it. The vector is copied, deflated
	// against v₁ and normalized; a wrong-length or numerically
	// degenerate Start silently falls back to the cold random start, so
	// results are correct (if slower) whenever the warm hint is stale.
	// The λ_n phase always cold-starts — the λ₂ vector carries no
	// information about the other end of the spectrum.
	Start []float64
}

func (o Options) withDefaults(defaultIter int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = defaultIter
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// randomUnit fills x with Gaussian noise and normalizes.
func randomUnit(x []float64, rng *rand.Rand) {
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	linalg.Normalize(x)
}

// powerExtreme runs deflated power iteration on the shifted operator
// (S + shift·I)/scale, whose spectrum is non-negative so the iterate
// cannot oscillate in sign. It returns the top eigenvalue of the
// shifted operator restricted to v₁⊥, the corresponding eigenvector,
// the iteration count, and whether the residual tolerance was met.
//
// With shift=+1, scale=2 the top restricted eigenvalue is (λ₂+1)/2;
// with shift=-1, scale=-2 (i.e. (I−S)/2) it is (1−λ_n)/2.
// The iteration checks ctx once per operator application and returns
// the wrapped ctx.Err() when cancelled.
func powerExtreme(ctx context.Context, op *Operator, shift, scale float64, start []float64, opt Options) (val float64, vec []float64, iters int, ok bool, err error) {
	n := op.Dim()
	rng := rand.New(rand.NewPCG(opt.Seed, 0x51e3))
	x := make([]float64, n)
	sx := make([]float64, n)
	scratch := make([]float64, n)
	if len(start) == n {
		copy(x, start)
	} else {
		randomUnit(x, rng)
	}
	op.Deflate(x)
	if linalg.Normalize(x) < 1e-12 {
		// A degenerate warm start (e.g. a stale vector collapsing onto
		// v₁, whose deflation residue is rounding noise still parallel
		// to v₁) must not wedge the solve: fall back to the cold start.
		// A deflated random unit vector has norm ≈ 1, so the cold path
		// never takes this branch and stays byte-identical.
		randomUnit(x, rng)
		op.Deflate(x)
		linalg.Normalize(x)
	}

	// One add per solve, whatever exit path the iteration takes.
	defer func() { opt.Collector.Add(telemetry.PowerIterations, int64(iters)) }()

	// After each matvec, three sweeps shift, deflate, take the
	// Rayleigh quotient and the residual, and normalize. Each element
	// sees the operations of separate passes in their order, and
	// every sum keeps its own accumulator, so no bit moves.
	v1 := op.v1
	var rho float64
	for iters = 1; iters <= opt.MaxIter; iters++ {
		if cerr := ctx.Err(); cerr != nil {
			return 0, nil, iters, false, fmt.Errorf("spectral: power iteration cancelled at matvec %d: %w", iters, cerr)
		}
		op.ApplyParallel(sx, x, scratch, opt.Workers)
		// y = (S + shift I)/scale · x, and v₁·y.
		var dv float64
		for i := range sx {
			y := (sx[i] + shift*x[i]) / scale
			sx[i] = y
			dv += v1[i] * y
		}
		// Deflate y against v₁, with the Rayleigh quotient ρ = x·y of
		// the shifted operator and ‖y‖² as two independent chains.
		var nn float64
		rho = 0
		for i := range sx {
			y := sx[i] + -dv*v1[i]
			sx[i] = y
			rho += x[i] * y
			nn += y * y
		}
		norm := math.Sqrt(nn)
		if norm == 0 {
			// x was (numerically) entirely in the null space; the
			// restricted operator is zero in this direction.
			return rho, x, iters, true, nil
		}
		// The residual ‖y − ρx‖, then y normalized.
		var res float64
		inv := 1 / norm
		for i, y := range sx {
			d := y - rho*x[i]
			res += d * d
			sx[i] = y * inv
		}
		x, sx = sx, x
		if math.Sqrt(res) <= opt.Tol/2 {
			return rho, x, iters, true, nil
		}
	}
	return rho, x, iters, false, nil
}

// SLEMPowerContext estimates µ of g's random walk by power iteration
// alone; see slemPower. The iteration checks ctx once per operator
// application and returns the wrapped ctx.Err() when cancelled.
func SLEMPowerContext(ctx context.Context, g *graph.Graph, opt Options) (*Estimate, error) {
	op, err := NewOperator(g)
	if err != nil {
		return nil, err
	}
	return slemPower(ctx, op, opt)
}

// Lambda2Power runs the λ₂ phase of power iteration alone: deflated
// power iteration on (S+I)/2, warm-started from Options.Start when it
// fits. It returns Lambda2, Vector2, Iters2 (= Iterations), Converged
// and WarmStarted exactly as slemPower, which calls it, reports them;
// LambdaN and Mu are NaN because the other end of the spectrum is
// never looked at. Callers that need only λ₂ and its eigenvector —
// the spectral sweep cut, a cold-start iteration count — skip the λ_n
// phase, which on slowly converging graphs costs many times the λ₂
// phase. The iteration checks ctx once per operator application and
// returns the wrapped ctx.Err() when cancelled.
func Lambda2Power(ctx context.Context, op *Operator, opt Options) (*Estimate, error) {
	opt = opt.withDefaults(50_000)
	if opt.Collector != nil && op.col == nil {
		op.SetCollector(opt.Collector)
	}
	if op.Dim() < 2 {
		return nil, errors.New("spectral: graph too small for SLEM")
	}
	warm := len(opt.Start) == op.Dim()
	if warm {
		opt.Collector.Add(telemetry.EvolveWarmStarts, 1)
	}
	// λ₂ from (S+I)/2; tolerance halves because λ₂ = 2ρ − 1.
	hiOpt := opt
	hiOpt.Tol = opt.Tol / 2
	rho, vec2, iters, ok, err := powerExtreme(ctx, op, +1, 2, opt.Start, hiOpt)
	if err != nil {
		return nil, err
	}
	return &Estimate{
		Mu:          math.NaN(),
		Lambda2:     2*rho - 1,
		LambdaN:     math.NaN(),
		Iterations:  iters,
		Iters2:      iters,
		Converged:   ok,
		WarmStarted: warm,
		Vector2:     vec2,
	}, nil
}

// slemPower estimates µ by two deflated power iterations on shifted
// operators: (S+I)/2 isolates λ₂ (Lambda2Power) and (I−S)/2 isolates
// λ_n. Shifting makes the restricted spectrum non-negative, so
// convergence is monotone even when λ₂ ≈ −λ_n (near-bipartite
// graphs), at the cost of a convergence rate governed by the shifted
// gap. This is the simple, O(n)-memory method: Solve's fallback when
// Lanczos does not converge, and the oracle the tests hold Lanczos
// against.
func slemPower(ctx context.Context, op *Operator, opt Options) (*Estimate, error) {
	opt = opt.withDefaults(50_000)
	est, err := Lambda2Power(ctx, op, opt)
	if err != nil {
		return nil, err
	}

	// λ_n from (I−S)/2: top eigenvalue there is (1−λ_n)/2. v₁ has
	// eigenvalue 0 in this operator, so deflation is belt and braces.
	// The phase always cold-starts — the λ₂ vector carries no
	// information about the other end of the spectrum — so two solves
	// on one operator at one Seed and Tol share λ_n bit for bit.
	loOpt := opt
	loOpt.Tol = opt.Tol / 2
	loOpt.Seed = opt.Seed + 1
	rhoLo, _, it2, ok2, err := powerExtreme(ctx, op, -1, -2, nil, loOpt)
	if err != nil {
		return nil, err
	}
	est.LambdaN = 1 - 2*rhoLo
	est.Mu = math.Max(math.Abs(est.Lambda2), math.Abs(est.LambdaN))
	est.Iterations += it2
	est.ItersN = it2
	est.Converged = est.Converged && ok2
	return est, nil
}
