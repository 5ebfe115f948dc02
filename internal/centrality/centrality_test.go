package centrality

import (
	"math"
	"math/rand/v2"
	"testing"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xce)) }

func TestBetweennessStar(t *testing.T) {
	// Star K_{1,4}: hub lies on every leaf pair's path: C(4,2)=6;
	// leaves 0.
	bc := Betweenness(gen.Star(4))
	if math.Abs(bc[0]-6) > 1e-9 {
		t.Fatalf("hub betweenness %v, want 6", bc[0])
	}
	for v := 1; v <= 4; v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf %d betweenness %v", v, bc[v])
		}
	}
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: bc(2)=4 ({0,1}×{3,4}), bc(1)=3 ({0}×{2,3,4}).
	bc := Betweenness(gen.Path(5))
	want := []float64{0, 3, 4, 3, 0}
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-9 {
			t.Fatalf("bc = %v, want %v", bc, want)
		}
	}
}

func TestBetweennessCompleteIsZero(t *testing.T) {
	for _, v := range Betweenness(gen.Complete(6)) {
		if v != 0 {
			t.Fatalf("K6 betweenness %v", v)
		}
	}
}

func TestBetweennessBridge(t *testing.T) {
	// Barbell: the two bridge endpoints dominate.
	g := gen.Barbell(6)
	bc := Betweenness(g)
	top := Top(bc, 2)
	hasLeft, hasRight := false, false
	for _, v := range top {
		if v == 0 {
			hasLeft = true
		}
		if v == 6 {
			hasRight = true
		}
	}
	if !hasLeft || !hasRight {
		t.Fatalf("bridge endpoints not top-2: %v", top)
	}
}

func TestSampledBetweennessApproximates(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rng(1))
	exact := Betweenness(g)
	approx := SampledBetweenness(g, 200, rng(2)) // all pivots, sampled with replacement
	// Rank correlation proxy: the exact top node should be near the
	// top of the approximation.
	topExact := Top(exact, 1)[0]
	topSet := Top(approx, 10)
	found := false
	for _, v := range topSet {
		if v == topExact {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact top node %d missing from sampled top-10 %v", topExact, topSet)
	}
	if z := SampledBetweenness(g, 0, rng(3)); z[0] != 0 {
		t.Fatal("k=0 sample not zero")
	}
}

func TestCloseness(t *testing.T) {
	// Path 0-1-2: closeness(1) = 2/2 = 1, ends = 2/3.
	cc := Closeness(gen.Path(3))
	if math.Abs(cc[1]-1) > 1e-12 || math.Abs(cc[0]-2.0/3) > 1e-12 {
		t.Fatalf("closeness %v", cc)
	}
	// Isolated vertex: 0.
	b := graph.NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddNode(2)
	if cc := Closeness(b.Build()); cc[2] != 0 {
		t.Fatalf("isolated closeness %v", cc[2])
	}
}

func TestPageRankUniformOnRegular(t *testing.T) {
	// On a regular graph PageRank is exactly uniform.
	pr := PageRank(gen.Ring(10), 0.85, 1e-12, 0)
	for _, p := range pr {
		if math.Abs(p-0.1) > 1e-9 {
			t.Fatalf("ring PageRank %v", pr)
		}
	}
}

func TestPageRankSumsToOneAndFavorsHubs(t *testing.T) {
	g := gen.Star(9)
	pr := PageRank(g, 0.85, 1e-12, 0)
	var sum float64
	for _, p := range pr {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PageRank sums to %v", sum)
	}
	if Top(pr, 1)[0] != 0 {
		t.Fatal("hub not top-ranked")
	}
	if pr[0] < 4*pr[1] {
		t.Fatalf("hub %v vs leaf %v", pr[0], pr[1])
	}
}

func TestPageRankHandlesDangling(t *testing.T) {
	b := graph.NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddNode(2) // isolated: dangling mass redistributes
	pr := PageRank(b.Build(), 0.85, 1e-12, 0)
	var sum float64
	for _, p := range pr {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("dangling PageRank sums to %v", sum)
	}
	if pr[2] <= 0 {
		t.Fatal("isolated node got zero rank")
	}
}

func TestPersonalizedPageRank(t *testing.T) {
	// Mass concentrates near the restart node and decays with
	// distance on a path.
	g := gen.Path(7)
	ppr := PersonalizedPageRank(g, 0, 0.85, 1e-12, 0)
	var sum float64
	for _, p := range ppr {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PPR sums to %v", sum)
	}
	// Endpoint 0 funnels all its mass through node 1, so the peak sits
	// at index 1; beyond it the score decays with distance.
	for i := 2; i < len(ppr); i++ {
		if ppr[i] > ppr[i-1]+1e-12 {
			t.Fatalf("PPR not decaying along path: %v", ppr)
		}
	}
	if ppr[0] < ppr[2] {
		t.Fatalf("restart node below distance-2 node: %v", ppr)
	}
	// Barbell: restart in the left clique keeps most mass there.
	bb := gen.Barbell(8)
	ppr = PersonalizedPageRank(bb, 1, 0.9, 1e-12, 0)
	var left, right float64
	for v := 0; v < 8; v++ {
		left += ppr[v]
		right += ppr[v+8]
	}
	if left < 3*right {
		t.Fatalf("barbell PPR left %v vs right %v", left, right)
	}
}

func TestTop(t *testing.T) {
	got := Top([]float64{0.1, 0.9, 0.5}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Top = %v", got)
	}
	if got := Top([]float64{0.1, 0.9, 0.5}, 5); len(got) != 3 || got[0] != 1 || got[2] != 0 {
		t.Fatalf("oversize k: Top = %v", got)
	}
	for _, k := range []int{0, -1, -100} {
		if got := Top([]float64{0.1, 0.9, 0.5}, k); len(got) != 0 {
			t.Fatalf("k=%d: Top = %v", k, got)
		}
	}
	if got := Top(nil, 3); len(got) != 0 {
		t.Fatalf("empty scores: Top = %v", got)
	}
}

func TestBetweennessEmpty(t *testing.T) {
	if bc := Betweenness(&graph.Graph{}); len(bc) != 0 {
		t.Fatal("empty betweenness")
	}
}
