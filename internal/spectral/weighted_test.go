package spectral

import (
	"context"
	"math"
	"testing"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// csrWeights builds a CSR-aligned uniform weight slice for g.
func csrWeights(g *graph.Graph, w float64) []float64 {
	var slots int
	for v := 0; v < g.NumNodes(); v++ {
		slots += g.Degree(graph.NodeID(v))
	}
	out := make([]float64, slots)
	for i := range out {
		out[i] = w
	}
	return out
}

func TestWeightedOperatorValidation(t *testing.T) {
	g := complete(5)
	if _, err := NewWeightedOperator(&graph.Graph{}, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := NewWeightedOperator(g, make([]float64, 3)); err == nil {
		t.Fatal("misaligned weights accepted")
	}
	bad := csrWeights(g, 1)
	bad[0] = -2
	if _, err := NewWeightedOperator(g, bad); err == nil {
		t.Fatal("negative weight accepted")
	}
	bad[0] = math.NaN()
	if _, err := NewWeightedOperator(g, bad); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

func TestUniformWeightsMatchUnweighted(t *testing.T) {
	// Constant weights rescale away: the walk operator is identical,
	// so SLEM estimates must agree with the unweighted path.
	g := connectedRandom(40, 60, 41)
	op, err := NewWeightedOperator(g, csrWeights(g, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Solve(context.Background(), op, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SLEMContext(context.Background(), g, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(weighted.Mu-plain.Mu) > 1e-7 {
		t.Fatalf("weighted µ=%v vs plain µ=%v", weighted.Mu, plain.Mu)
	}
	// Both ops have the same stationary distribution (deg/2m): π_v is v1[v]².
	twoM := float64(2 * g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		want := float64(g.Degree(graph.NodeID(v))) / twoM
		if pi := op.v1[v] * op.v1[v]; math.Abs(pi-want) > 1e-12 {
			t.Fatalf("strength π[%d]=%v want %v", v, pi, want)
		}
	}
	if op.Graph() != g {
		t.Fatal("Graph accessor")
	}
}

func TestWeightedPowerAndLanczosAgree(t *testing.T) {
	g := connectedRandom(35, 45, 43)
	// Non-uniform symmetric weights: slot weight = 1/(1+u+v).
	w := make([]float64, 0)
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			w = append(w, 1/float64(1+int(u)+v))
		}
	}
	op, err := NewWeightedOperator(g, w)
	if err != nil {
		t.Fatal(err)
	}
	pow, err := slemPower(context.Background(), op, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	op2, _ := NewWeightedOperator(g, w)
	lan, err := slemLanczos(context.Background(), op2, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pow.Mu-lan.Mu) > 1e-6 {
		t.Fatalf("power %v vs lanczos %v", pow.Mu, lan.Mu)
	}
	// Top eigenvector of the weighted S is invariant.
	v1 := op.TopEigenvector()
	sv := make([]float64, g.NumNodes())
	op.Apply(sv, v1, nil)
	for i := range v1 {
		if math.Abs(sv[i]-v1[i]) > 1e-10 {
			t.Fatalf("S·v1 ≠ v1 at %d", i)
		}
	}
}

// TestSLEMFallbackPath drives both outcomes of Solve's fallback. A
// 3-step budget stops Lanczos short of convergence on a 200-node
// graph, so Solve restarts with power iteration: at Tol 0.5 the power
// estimate converges and replaces the Lanczos one, at Tol 0.1 it does
// not and the unconverged Lanczos estimate is kept. The weighted row
// is the trust-chain (WeightedSLEM) path.
func TestSLEMFallbackPath(t *testing.T) {
	g := connectedRandom(200, 600, 3)
	cases := []struct {
		name     string
		weights  []float64
		tol      float64
		usePower bool
		itersN   int
	}{
		{"power converges", nil, 0.5, true, 3},
		{"power unconverged", nil, 0.1, false, 0},
		{"weighted, power converges", variedWeights(g), 0.55, true, 3},
	}
	ctx := context.Background()
	for _, c := range cases {
		newOp := func() *Operator {
			op, err := NewOperator(g)
			if c.weights != nil {
				op, err = NewWeightedOperator(g, c.weights)
			}
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return op
		}
		col := telemetry.New()
		opt := Options{Tol: c.tol, MaxIter: 3, Collector: col}
		est, err := Solve(ctx, newOp(), opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := col.Count(telemetry.Restarts); got != 1 {
			t.Errorf("%s: restarts = %d, want 1", c.name, got)
		}
		if got := col.Count(telemetry.PowerIterations); got == 0 {
			t.Errorf("%s: no power iterations ran", c.name)
		}
		if est.ItersN != c.itersN || est.Converged != c.usePower {
			t.Errorf("%s: ItersN = %d, converged = %v; want %d, %v",
				c.name, est.ItersN, est.Converged, c.itersN, c.usePower)
		}
		// The returned estimate is the chosen stage's own, bit for bit.
		opt.Collector = nil
		stage := slemLanczos
		if c.usePower {
			stage = slemPower
		}
		want, err := stage(ctx, newOp(), opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if est.Mu != want.Mu || est.Lambda2 != want.Lambda2 || est.Iterations != want.Iterations {
			t.Errorf("%s: Solve returned µ=%v λ₂=%v iters=%d, the stage alone µ=%v λ₂=%v iters=%d",
				c.name, est.Mu, est.Lambda2, est.Iterations, want.Mu, want.Lambda2, want.Iterations)
		}
	}
}
