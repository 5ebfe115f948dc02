package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x3e7)) }

func TestDegreesOnKnownGraphs(t *testing.T) {
	k5 := Degrees(gen.Complete(5))
	if k5.Min != 4 || k5.Max != 4 || k5.Mean != 4 || k5.Median != 4 {
		t.Fatalf("K5 stats %+v", k5)
	}
	if math.Abs(k5.Gini) > 1e-12 {
		t.Fatalf("regular graph Gini %v", k5.Gini)
	}
	star := Degrees(gen.Star(9))
	if star.Max != 9 || star.Min != 1 {
		t.Fatalf("star stats %+v", star)
	}
	// K_{1,9} has sorted degrees [1×9, 9]: Gini = 72/(10·18) = 0.4.
	if math.Abs(star.Gini-0.4) > 1e-12 {
		t.Fatalf("star Gini %v, want 0.4", star.Gini)
	}
	if z := Degrees(&graph.Graph{}); z != (DegreeStats{}) {
		t.Fatalf("empty stats %+v", z)
	}
}

func TestClusteringOnKnownGraphs(t *testing.T) {
	// Complete graph: clustering 1 everywhere.
	if c := AverageClustering(gen.Complete(6)); math.Abs(c-1) > 1e-12 {
		t.Fatalf("K6 clustering %v", c)
	}
	if c := GlobalClustering(gen.Complete(6)); math.Abs(c-1) > 1e-12 {
		t.Fatalf("K6 transitivity %v", c)
	}
	// Star: no triangles.
	if c := AverageClustering(gen.Star(8)); c != 0 {
		t.Fatalf("star clustering %v", c)
	}
	// Ring: neighbor pairs never adjacent for n > 4.
	if c := GlobalClustering(gen.Ring(10)); c != 0 {
		t.Fatalf("C10 transitivity %v", c)
	}
	// Triangle: every vertex clusters perfectly.
	if c := LocalClustering(gen.Complete(3), 0); c != 1 {
		t.Fatalf("triangle local %v", c)
	}
}

func TestCavemanClustersMoreThanER(t *testing.T) {
	cave := gen.RelaxedCaveman(20, 8, 0.05, rng(1))
	er := gen.ErdosRenyiM(cave.NumNodes(), cave.NumEdges(), rng(2))
	if AverageClustering(cave) <= AverageClustering(er)+0.2 {
		t.Fatalf("caveman %v vs ER %v", AverageClustering(cave), AverageClustering(er))
	}
}

func TestAssortativitySign(t *testing.T) {
	// Star: ends of every edge have degrees (n, 1) — perfectly
	// disassortative.
	if a := Assortativity(gen.Star(10)); a > -0.999 {
		t.Fatalf("star assortativity %v, want ≈ -1", a)
	}
	// Regular graphs have zero degree variance → define 0.
	if a := Assortativity(gen.Ring(12)); a != 0 {
		t.Fatalf("ring assortativity %v", a)
	}
	// BA graphs are mildly disassortative; caveman cliques positive-ish.
	ba := Assortativity(gen.BarabasiAlbert(2000, 3, rng(5)))
	if ba > 0.05 {
		t.Fatalf("BA assortativity %v, expected ≤ 0", ba)
	}
}

func TestAssortativityBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.ErdosRenyiM(60, 120, rng(seed))
		a := Assortativity(g)
		return a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSampledPathLength(t *testing.T) {
	// Path graph 0-1-2-3: mean distance from exhaustive sources is
	// known: pairs (ordered) distances average = 2·(3·1+2·2+1·3)/12...
	// Compute directly instead: from each source BFS sums all
	// distances; mean over ordered pairs = 10/6? Use the complete
	// graph where every distance is 1.
	if d := SampledPathLength(gen.Complete(10), 10, rng(6)); math.Abs(d-1) > 1e-12 {
		t.Fatalf("K10 mean path %v", d)
	}
	ring := SampledPathLength(gen.Ring(20), 20, rng(7))
	// C20 mean distance = (Σ_{k=1..10} min(k,20-k)·…) ≈ 5.26; just
	// check the ballpark.
	if ring < 4 || ring > 6 {
		t.Fatalf("C20 mean path %v", ring)
	}
	if SampledPathLength(&graph.Graph{}, 5, rng(8)) != 0 {
		t.Fatal("empty graph path length")
	}
}

func TestGiniMonotoneUnderHubGrowth(t *testing.T) {
	// Adding a hub to a regular structure increases inequality.
	ring := Degrees(gen.Ring(50)).Gini
	// Pendants on a lone node make the star K_{1,50}, the hub extreme.
	b := graph.NewBuilder(50)
	b.AddNode(0)
	gen.AddPendants(b, 50, rng(9))
	withHub := b.Build()
	if Degrees(withHub).Gini <= ring {
		t.Fatalf("hub Gini %v not above ring %v", Degrees(withHub).Gini, ring)
	}
}
