package spectral

import (
	"context"
	"math/rand/v2"
	"testing"

	"mixtime/internal/graph"
)

// variedWeights builds symmetric non-uniform CSR-aligned weights for
// g, deterministic in the edge endpoints so the u→v and v→u slots
// agree.
func variedWeights(g *graph.Graph) []float64 {
	var weights []float64
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			a, b := v, int(u)
			if a > b {
				a, b = b, a
			}
			weights = append(weights, 1+float64((a*31+b)%7))
		}
	}
	return weights
}

func TestApplyParallelMatchesApply(t *testing.T) {
	g := connectedRandom(300, 600, 19)
	rng := rand.New(rand.NewPCG(2, 3))
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}

	unweighted, err := NewOperator(g)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := NewWeightedOperator(g, variedWeights(g))
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]*Operator{"unweighted": unweighted, "weighted": weighted} {
		want := make([]float64, op.Dim())
		op.Apply(want, x, nil)
		for _, workers := range []int{0, 1, 2, 4, 64} {
			got := make([]float64, op.Dim())
			op.ApplyParallel(got, x, nil, workers)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s workers=%d: row %d: %v, want %v (not byte-identical)",
						name, workers, v, got[v], want[v])
				}
			}
		}
	}
}

// Apply must accept oversized scratch by reslicing and allocate its
// own when scratch is short, with identical results.
func TestApplyScratchSizes(t *testing.T) {
	g := connectedRandom(80, 120, 23)
	op, err := NewOperator(g)
	if err != nil {
		t.Fatal(err)
	}
	n := op.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	want := make([]float64, n)
	op.Apply(want, x, make([]float64, n))
	for _, size := range []int{0, n - 1, n + 33} {
		got := make([]float64, n)
		op.Apply(got, x, make([]float64, size))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("scratch len %d: row %d differs", size, v)
			}
		}
		gotPar := make([]float64, n)
		op.ApplyParallel(gotPar, x, make([]float64, size), 3)
		for v := range want {
			if gotPar[v] != want[v] {
				t.Fatalf("parallel scratch len %d: row %d differs", size, v)
			}
		}
	}
}

// SLEM estimates must be byte-identical for any Workers setting, since
// the sharded matvec preserves per-row summation order.
func TestSLEMWorkersByteIdentical(t *testing.T) {
	g := connectedRandom(150, 250, 29)
	base, err := SLEMContext(context.Background(), g, Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4} {
		est, err := SLEMContext(context.Background(), g, Options{Seed: 11, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if est.Mu != base.Mu || est.Lambda2 != base.Lambda2 || est.Iterations != base.Iterations {
			t.Fatalf("workers=%d: (µ=%v λ₂=%v iters=%d), want (µ=%v λ₂=%v iters=%d)",
				workers, est.Mu, est.Lambda2, est.Iterations,
				base.Mu, base.Lambda2, base.Iterations)
		}
	}
}
