package spectral

import (
	"context"
	"math"
	"strconv"
	"testing"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// warmTestGraph is a ring with chords — connected with a clean
// spectral gap, cheap enough for dense cross-checks.
func warmTestGraph(n int) *graph.Graph {
	b := graph.NewBuilder(2 * n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+n/3)%n))
	}
	return b.Build()
}

// TestWarmStartFromConvergedVectorCollapsesIterations: seeding the λ₂
// phase with its own converged eigenvector must converge almost
// immediately — the limiting case of the evolving-graph warm start.
func TestWarmStartFromConvergedVectorCollapsesIterations(t *testing.T) {
	g := warmTestGraph(90)
	opt := Options{Tol: 1e-9, Seed: 1}
	cold, err := SLEMPowerContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged || cold.WarmStarted {
		t.Fatalf("cold run: converged=%v warm=%v", cold.Converged, cold.WarmStarted)
	}
	opt.Start = cold.Vector2
	warm, err := SLEMPowerContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted || !warm.Converged {
		t.Fatalf("warm run: converged=%v warm=%v", warm.Converged, warm.WarmStarted)
	}
	if warm.Iters2 > 3 {
		t.Fatalf("warm start from the converged vector took %d λ₂ iterations, want ≤ 3 (cold took %d)",
			warm.Iters2, cold.Iters2)
	}
	if warm.Iters2 >= cold.Iters2 {
		t.Fatalf("warm λ₂ phase (%d) not cheaper than cold (%d)", warm.Iters2, cold.Iters2)
	}
	// The λ_n phase never warm-starts, so its cost is unchanged.
	if warm.ItersN != cold.ItersN {
		t.Fatalf("λ_n phase differs: %d vs %d", warm.ItersN, cold.ItersN)
	}
	// Byte identity of the converged value at document precision.
	if w, c := strconv.FormatFloat(warm.Mu, 'f', 6, 64), strconv.FormatFloat(cold.Mu, 'f', 6, 64); w != c {
		t.Fatalf("converged µ differs: %s vs %s", w, c)
	}
}

// TestWrongLengthStartFallsBackByteIdentical: a Start of the wrong
// length must be ignored entirely, reproducing the cold run bit for
// bit (the rng consumption is identical).
func TestWrongLengthStartFallsBackByteIdentical(t *testing.T) {
	g := warmTestGraph(60)
	opt := Options{Tol: 1e-8, Seed: 3}
	cold, err := SLEMPowerContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Start = make([]float64, g.NumNodes()-1) // wrong length
	fell, err := SLEMPowerContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fell.WarmStarted {
		t.Fatal("wrong-length Start reported as warm")
	}
	if fell.Mu != cold.Mu || fell.Lambda2 != cold.Lambda2 || fell.Iterations != cold.Iterations {
		t.Fatalf("fallback differs from cold run: %+v vs %+v", fell, cold)
	}
}

// TestDegenerateStartRecovers: a Start that deflates to zero (v₁
// itself) must fall back to the random start and still converge to
// the right answer.
func TestDegenerateStartRecovers(t *testing.T) {
	g := warmTestGraph(50)
	op, err := NewOperator(g)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SLEMPowerContext(context.Background(), g, Options{Tol: 1e-8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deg, err := SLEMPowerContext(context.Background(), g, Options{Tol: 1e-8, Seed: 1, Start: op.TopEigenvector()})
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Converged {
		t.Fatal("degenerate start did not converge")
	}
	if d := math.Abs(deg.Mu - cold.Mu); d > 1e-7 {
		t.Fatalf("degenerate-start µ %v vs cold µ %v differ by %g", deg.Mu, cold.Mu, d)
	}
}

// TestLanczosWarmStartAndRitzVector: Lanczos must emit a λ₂ Ritz
// vector usable as a warm start, and accept one.
func TestLanczosWarmStartAndRitzVector(t *testing.T) {
	g := warmTestGraph(80)
	opt := Options{Tol: 1e-9, Seed: 1}
	est, err := lanczosEstimate(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Vector2) != g.NumNodes() {
		t.Fatalf("Lanczos Vector2 length %d, want %d", len(est.Vector2), g.NumNodes())
	}
	// The Ritz vector should be a genuine eigenvector estimate: check
	// its Rayleigh quotient against the reported λ₂.
	op, err := NewOperator(g)
	if err != nil {
		t.Fatal(err)
	}
	sx := make([]float64, g.NumNodes())
	op.Apply(sx, est.Vector2, nil)
	var rq float64
	for i := range sx {
		rq += sx[i] * est.Vector2[i]
	}
	if d := math.Abs(rq - est.Lambda2); d > 1e-6 {
		t.Fatalf("Ritz vector Rayleigh quotient %v vs λ₂ %v differ by %g", rq, est.Lambda2, d)
	}

	opt.Start = est.Vector2
	warm, err := lanczosEstimate(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted || !warm.Converged {
		t.Fatalf("warm Lanczos: converged=%v warm=%v", warm.Converged, warm.WarmStarted)
	}
	if d := math.Abs(warm.Mu - est.Mu); d > 1e-7 {
		t.Fatalf("warm Lanczos µ %v vs cold %v differ by %g", warm.Mu, est.Mu, d)
	}
}

// TestWarmStartAgainstDenseOracle: warm-started estimates still match
// the dense eigensolver — the warm path is an optimization, not an
// approximation.
func TestWarmStartAgainstDenseOracle(t *testing.T) {
	g := warmTestGraph(40)
	want, err := DenseSLEM(g)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SLEMPowerContext(context.Background(), g, Options{Tol: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SLEMPowerContext(context.Background(), g, Options{Tol: 1e-9, Seed: 1, Start: cold.Vector2})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warm.Mu - want); d > 1e-6 {
		t.Fatalf("warm µ %v vs dense %v differ by %g", warm.Mu, want, d)
	}
}

func TestWarmStartTelemetry(t *testing.T) {
	g := warmTestGraph(40)
	col := telemetry.New()
	cold, err := SLEMPowerContext(context.Background(), g, Options{Tol: 1e-8, Seed: 1, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Count(telemetry.EvolveWarmStarts); got != 0 {
		t.Fatalf("cold run counted %d warm starts", got)
	}
	if _, err := SLEMPowerContext(context.Background(), g, Options{Tol: 1e-8, Seed: 1, Collector: col, Start: cold.Vector2}); err != nil {
		t.Fatal(err)
	}
	if got := col.Count(telemetry.EvolveWarmStarts); got != 1 {
		t.Fatalf("evolve_warm_starts = %d, want 1", got)
	}
}
