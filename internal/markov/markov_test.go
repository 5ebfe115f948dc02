package markov

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"mixtime/internal/graph"
)

func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build()
}

func connectedRandom(n int, extra int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 17))
	b := graph.NewBuilder(0)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(i)), graph.NodeID(i)) // random tree
	}
	for k := 0; k < extra; k++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	g := b.Build()
	return g
}

func mustChain(t *testing.T, g *graph.Graph, opts ...Option) *Chain {
	t.Helper()
	c, err := New(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsDegenerate(t *testing.T) {
	if _, err := New(&graph.Graph{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	b := graph.NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddNode(2) // isolated
	if _, err := New(b.Build()); err == nil {
		t.Fatal("isolated vertex accepted")
	}
}

func TestStationaryDistribution(t *testing.T) {
	g := connectedRandom(50, 80, 3)
	c := mustChain(t, g)
	pi := c.Stationary()
	var sum float64
	twoM := float64(2 * g.NumEdges())
	for v, p := range pi {
		sum += p
		want := float64(g.Degree(graph.NodeID(v))) / twoM
		if math.Abs(p-want) > 1e-15 {
			t.Fatalf("pi[%d] = %v, want %v", v, p, want)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pi sums to %v", sum)
	}
}

func TestStationaryIsInvariant(t *testing.T) {
	for _, lazyOpt := range [][]Option{nil, {Lazy()}} {
		g := connectedRandom(60, 100, 9)
		c := mustChain(t, g, lazyOpt...)
		pi := append([]float64(nil), c.Stationary()...)
		q := make([]float64, len(pi))
		c.Step(q, pi, nil)
		if d := TVDistance(q, c.Stationary()); d > 1e-14 {
			t.Fatalf("lazy=%v: ‖πP − π‖ = %g", c.IsLazy(), d)
		}
	}
}

func TestStepPreservesMass(t *testing.T) {
	g := connectedRandom(40, 60, 5)
	c := mustChain(t, g)
	p := c.Delta(7)
	p = c.Propagate(p, 25)
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mass after 25 steps = %v", sum)
	}
}

func TestCompleteGraphOneStepTV(t *testing.T) {
	// On K_n the point mass spreads uniformly over the n-1 neighbors
	// in one step; TV to the uniform π is exactly 1/n.
	n := 10
	c := mustChain(t, complete(n))
	tr := c.TraceFrom(0, 3)
	if got, want := tr.DistanceAt(1), 1/float64(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TV after 1 step = %v, want %v", got, want)
	}
	// K_n mixes essentially instantly; by step 3 distance is tiny.
	if tr.DistanceAt(3) > 1e-2 {
		t.Fatalf("K10 TV after 3 steps = %v", tr.DistanceAt(3))
	}
}

func TestBipartiteNeverMixesWithoutLaziness(t *testing.T) {
	g := ring(8) // even cycle: bipartite
	c := mustChain(t, g)
	if c.IsErgodic() {
		t.Fatal("plain walk on even cycle reported ergodic")
	}
	tr := c.TraceFrom(0, 200)
	if tr.DistanceAt(200) < 0.4 {
		t.Fatalf("bipartite TV fell to %v", tr.DistanceAt(200))
	}
	lazy := mustChain(t, g, Lazy())
	if !lazy.IsErgodic() {
		t.Fatal("lazy walk on even cycle reported non-ergodic")
	}
	ltr := lazy.TraceFrom(0, 400)
	if ltr.DistanceAt(400) > 1e-3 {
		t.Fatalf("lazy TV after 400 steps = %v", ltr.DistanceAt(400))
	}
}

func TestTVDistanceProperties(t *testing.T) {
	p := []float64{1, 0, 0}
	q := []float64{0, 0.5, 0.5}
	if d := TVDistance(p, q); d != 1 {
		t.Fatalf("disjoint TV = %v", d)
	}
	if d := TVDistance(p, p); d != 0 {
		t.Fatalf("self TV = %v", d)
	}
}

func TestSeparationDominatesTV(t *testing.T) {
	g := connectedRandom(40, 50, 11)
	c := mustChain(t, g)
	p := c.Propagate(c.Delta(0), 5)
	sep := c.SeparationDistance(p)
	tv := c.TVFromStationary(p)
	if sep < tv-1e-12 {
		t.Fatalf("separation %v < TV %v", sep, tv)
	}
	if s := c.SeparationDistance(c.Stationary()); math.Abs(s) > 1e-12 {
		t.Fatalf("separation of π = %v", s)
	}
}

func TestDistanceHierarchy(t *testing.T) {
	// RPD ≥ separation ≥ TV for any distribution, and all vanish at π.
	g := connectedRandom(60, 90, 13)
	c := mustChain(t, g)
	p := c.Propagate(c.Delta(3), 4)
	rpd := c.RelativePointwiseDistance(p)
	sep := c.SeparationDistance(p)
	tv := c.TVFromStationary(p)
	if rpd < sep-1e-12 || sep < tv-1e-12 {
		t.Fatalf("hierarchy violated: rpd=%v sep=%v tv=%v", rpd, sep, tv)
	}
	if d := c.RelativePointwiseDistance(c.Stationary()); d > 1e-12 {
		t.Fatalf("RPD(π) = %v", d)
	}
	if d := c.KLDivergence(c.Stationary()); d > 1e-12 {
		t.Fatalf("KL(π) = %v", d)
	}
}

func TestKLDivergence(t *testing.T) {
	g := complete(4) // uniform π = 1/4
	c := mustChain(t, g)
	// Point mass: KL = ln(1/π_v) = ln 4.
	if d := c.KLDivergence(c.Delta(0)); math.Abs(d-math.Log(4)) > 1e-12 {
		t.Fatalf("KL(δ) = %v, want ln 4", d)
	}
	// KL decreases as the walk mixes.
	p5 := c.Propagate(c.Delta(0), 5)
	if c.KLDivergence(p5) >= math.Log(4) {
		t.Fatal("KL did not decrease")
	}
}

// TestTraceUntil: given eps, the blocked tracer ends a lone source's
// trace at its first crossing; eps 0 is never reached, so that trace
// runs all maxT steps.
func TestTraceUntil(t *testing.T) {
	c := mustChain(t, complete(20))
	trace := func(eps float64, maxT int) *Trace {
		trs, err := c.TraceSampleBlockedContext(context.Background(), []graph.NodeID{0}, maxT, eps, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return trs[0]
	}
	tr := trace(1e-6, 100)
	tm, ok := tr.MixingTime(1e-6)
	if !ok {
		t.Fatal("K20 did not mix to 1e-6 in 100 steps")
	}
	if tm != len(tr.TV) {
		t.Fatalf("trace runs %d steps past its first crossing at %d", len(tr.TV)-tm, tm)
	}
	if tr = trace(0, 5); len(tr.TV) != 5 {
		t.Fatalf("eps=0 trace has %d steps, want 5", len(tr.TV))
	}
	if _, ok = tr.MixingTime(0); ok {
		t.Fatal("reached eps=0")
	}
}

func TestMixingTimeDefinition(t *testing.T) {
	traces := []*Trace{
		{Source: 0, TV: []float64{0.5, 0.2, 0.05}},
		{Source: 1, TV: []float64{0.6, 0.4, 0.09}},
	}
	tm, ok := MixingTime(traces, 0.1)
	if !ok || tm != 3 {
		t.Fatalf("MixingTime = %d,%v want 3,true", tm, ok)
	}
	tm, ok = MixingTime(traces, 0.3)
	if !ok || tm != 3 {
		t.Fatalf("MixingTime(0.3) = %d,%v want 3,true", tm, ok)
	}
	_, ok = MixingTime(traces, 0.01)
	if ok {
		t.Fatal("unreachable eps reported ok")
	}
	avg := AverageMixingTime(traces, 0.3)
	if avg != 2.5 { // source 0 reaches at t=2, source 1 at t=3
		t.Fatalf("avg = %v", avg)
	}
}

func TestDistancesAt(t *testing.T) {
	traces := []*Trace{{TV: []float64{0.4, 0.1}}, {TV: []float64{0.2}}}
	d := DistancesAt(traces, 2)
	if d[0] != 0.1 || d[1] != 0.2 { // second trace clamps to last value
		t.Fatalf("DistancesAt = %v", d)
	}
	d0 := DistancesAt(traces, 0)
	if d0[0] != 1 {
		t.Fatalf("DistancesAt(0) = %v", d0)
	}
}

// Property: TV distance to π never increases along the walk (the
// transition operator is a contraction for any initial distribution).
func TestQuickTVMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		g := connectedRandom(30+int(seed%40), 60, seed)
		c, err := New(g, Lazy())
		if err != nil {
			return false
		}
		tr := c.TraceFrom(graph.NodeID(seed%uint64(g.NumNodes())), 60)
		for i := 1; i < len(tr.TV); i++ {
			if tr.TV[i] > tr.TV[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: exact propagation and Monte-Carlo estimation agree to
// within sampling error on a fast-mixing graph.
func TestMCTraceApproximatesExact(t *testing.T) {
	g := complete(12)
	c := mustChain(t, g)
	rng := rand.New(rand.NewPCG(42, 43))
	exact := c.TraceFrom(0, 8)
	mc := c.MCTrace(0, 8, 40_000, rng)
	for i := range exact.TV {
		if diff := math.Abs(exact.TV[i] - mc.TV[i]); diff > 0.05 {
			t.Fatalf("step %d: exact %v vs MC %v", i+1, exact.TV[i], mc.TV[i])
		}
	}
}

func TestMCTraceLazy(t *testing.T) {
	g := ring(8)
	c := mustChain(t, g, Lazy())
	rng := rand.New(rand.NewPCG(7, 8))
	mc := c.MCTrace(0, 300, 20_000, rng)
	if final := mc.TV[len(mc.TV)-1]; final > 0.1 {
		t.Fatalf("lazy MC walk did not mix: TV = %v", final)
	}
}

func TestSampleSources(t *testing.T) {
	g := complete(10)
	rng := rand.New(rand.NewPCG(1, 1))
	s := SampleSources(g, 5, rng)
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate source")
		}
		seen[v] = true
	}
	all := SampleSources(g, 100, rng)
	if len(all) != 10 {
		t.Fatalf("oversample len = %d", len(all))
	}
}

func BenchmarkStep10k(b *testing.B) {
	g := connectedRandom(10_000, 40_000, 1)
	c, err := New(g)
	if err != nil {
		b.Fatal(err)
	}
	p := c.Delta(0)
	q := make([]float64, g.NumNodes())
	scratch := make([]float64, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(q, p, scratch)
		p, q = q, p
	}
}
