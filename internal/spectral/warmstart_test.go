package spectral

import (
	"context"
	"encoding/binary"
	"hash/fnv"
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

// vectorBits hashes the exact bits of a vector (FNV-1a over its
// little-endian float64 words), so a pinned test can compare a whole
// eigenvector without spelling it out.
func vectorBits(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestLambda2PowerMatchesSLEMPower: the λ₂ phase run on its own must
// report exactly what the full power solve reports for λ₂ — value,
// eigenvector and iteration count, bit for bit — from cold starts at
// several seeds and from a warm start, and must leave the λ_n fields
// unset rather than zero. The pins were recorded from
// SLEMPowerContext before the λ₂ phase became its own function, so a
// change inside that function cannot pass by moving both sides. The
// full solve's λ_n bits and ItersN are pinned too: the λ_n phase runs
// the same powerExtreme sweeps on (I−S)/2.
func TestLambda2PowerMatchesSLEMPower(t *testing.T) {
	ctx := context.Background()
	ringChords := warmTestGraph(90)
	random := connectedRandom(150, 60, 4)
	rough, err := SLEMPowerContext(ctx, random, Options{Tol: 1e-4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		opt     Options
		lambda2 uint64 // math.Float64bits of λ₂
		iters2  int
		vector  uint64 // vectorBits of Vector2
		lambdaN uint64 // math.Float64bits of slemPower's λ_n
		itersN  int
	}{
		{"cold ring seed 1", ringChords, Options{Tol: 1e-9, Seed: 1}, 0x3fefa67e193d0036, 1073, 0xb5647433fa596755,
			0xbfe7f605b8b87ff6, 8116},
		{"cold ring seed 2", ringChords, Options{Tol: 1e-9, Seed: 2}, 0x3fefa67e193d0034, 1149, 0x11091d708b707fa3,
			0xbfe7f605b8b88004, 7464},
		{"cold ring seed 3", ringChords, Options{Tol: 1e-9, Seed: 3}, 0x3fefa67e193d0040, 1079, 0xed1dc95a4589cc25,
			0xbfe7f605b8b87ff8, 7745},
		{"cold random seed 1", random, Options{Tol: 1e-8, Seed: 1}, 0x3fee1bd08770ebc4, 2316, 0x8186f04b6d7992ef,
			0xbfee435beaa88ae2, 3107},
		{"cold random seed 2", random, Options{Tol: 1e-8, Seed: 2}, 0x3fee1bd08770ebc4, 2433, 0x778668a61139d736,
			0xbfee435beaa88ade, 2989},
		{"cold random seed 3", random, Options{Tol: 1e-8, Seed: 3}, 0x3fee1bd08770ebc8, 2833, 0xfc87f64d67fdb1ca,
			0xbfee435beaa88afa, 2432},
		{"warm random", random, Options{Tol: 1e-8, Seed: 2, Start: rough.Vector2}, 0x3fee1bd08770ebc2, 1507, 0xba2c5933642666b4,
			0xbfee435beaa88ade, 2989},
	}
	for _, c := range cases {
		full, err := SLEMPowerContext(ctx, c.g, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		op, err := NewOperator(c.g)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Lambda2Power(ctx, op, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []struct {
			who string
			est *Estimate
		}{{"Lambda2Power", l2}, {"SLEMPowerContext", full}} {
			if got := math.Float64bits(e.est.Lambda2); got != c.lambda2 {
				t.Errorf("%s: %s λ₂ bits %#x, pinned %#x", c.name, e.who, got, c.lambda2)
			}
			if e.est.Iters2 != c.iters2 {
				t.Errorf("%s: %s λ₂ iterations %d, pinned %d", c.name, e.who, e.est.Iters2, c.iters2)
			}
			if got := vectorBits(e.est.Vector2); got != c.vector {
				t.Errorf("%s: %s Vector2 bits %#x, pinned %#x", c.name, e.who, got, c.vector)
			}
			if e.est.WarmStarted != (c.opt.Start != nil) {
				t.Errorf("%s: %s warm started %v", c.name, e.who, e.est.WarmStarted)
			}
		}
		if got := math.Float64bits(full.LambdaN); got != c.lambdaN || full.ItersN != c.itersN {
			t.Errorf("%s: SLEMPowerContext λ_n bits %#x after %d iterations, pinned %#x after %d",
				c.name, got, full.ItersN, c.lambdaN, c.itersN)
		}
		if l2.Iterations != l2.Iters2 || l2.ItersN != 0 || l2.Converged != full.Converged {
			t.Errorf("%s: iterations %d/%d/%d converged %v, want %d/%d/0 and %v", c.name,
				l2.Iterations, l2.Iters2, l2.ItersN, l2.Converged, full.Iters2, full.Iters2, full.Converged)
		}
		if !math.IsNaN(l2.LambdaN) || !math.IsNaN(l2.Mu) {
			t.Errorf("%s: λ_n %v and µ %v reported by a λ₂-only solve", c.name, l2.LambdaN, l2.Mu)
		}
	}
}
