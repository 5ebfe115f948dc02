package spectral

import (
	"context"
	"math"
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

// hubsAndLeaves is a graph whose CSR rows alternate between hubs and
// degree-1 leaves: hub h·50 links to the next hub and to every leaf
// up to it, a few chords lift some leaves to degree 2 or 3, and rows
// 120–131 form a clique, so neighbouring rows share long prefixes
// whose summation order matters. With n = 301 the row count is not a
// multiple of 2, 3 or 4.
func hubsAndLeaves() *graph.Graph {
	const n, span = 301, 50
	b := graph.NewBuilder(0)
	for v := 1; v < n; v++ {
		hub := v / span * span
		if v%span == 0 {
			hub = v - span
		}
		b.AddEdge(graph.NodeID(hub), graph.NodeID(v))
	}
	for v := 3; v+17 < n; v += 13 {
		if v%span != 0 && (v+17)%span != 0 {
			b.AddEdge(graph.NodeID(v), graph.NodeID(v+17))
		}
	}
	for u := 120; u < 132; u++ {
		for v := u + 1; v < 132; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.Build()
}

// TestApplyMatchesRowReference holds the matvec to a per-row sum
// written out here: each row adds its neighbours' pre-scaled entries
// (times the edge weight, when weighted) in CSR order, then scales by
// 1/√strength. TestApplyParallelMatchesApply compares two callers of
// the same row kernel, so a kernel that interleaves rows wrongly
// would pass it; this test does not share the kernel. A 7-shard plan
// makes shards start at odd rows, inside any group of rows the
// kernel walks together.
func TestApplyMatchesRowReference(t *testing.T) {
	g := hubsAndLeaves()
	n := g.NumNodes()
	rng := rand.New(rand.NewPCG(4, 5))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	unweighted, err := NewOperator(g)
	if err != nil {
		t.Fatal(err)
	}
	weights := variedWeights(g)
	weighted, err := NewWeightedOperator(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]*Operator{"unweighted": unweighted, "weighted": weighted} {
		op.plan = graph.NewShardPlan(g, 7)
		oddStart := false
		for i := 0; i < op.plan.NumShards(); i++ {
			if lo, _ := op.plan.Bounds(i); lo%2 == 1 {
				oddStart = true
			}
		}
		if !oddStart {
			t.Fatalf("%s: no shard starts at an odd row", name)
		}
		want := make([]float64, n)
		slot := 0
		for v := 0; v < n; v++ {
			var s float64
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				wu := x[u] * op.invSqrtDeg[u]
				if op.weights != nil {
					s += weights[slot] * wu
				} else {
					s += wu
				}
				slot++
			}
			want[v] = s * op.invSqrtDeg[v]
		}
		for _, workers := range []int{1, 2, 3} {
			got := make([]float64, n)
			op.ApplyParallel(got, x, nil, workers)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s workers=%d: row %d (degree %d): %v, reference %v",
						name, workers, v, g.Degree(graph.NodeID(v)), got[v], want[v])
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
