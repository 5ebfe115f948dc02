package digraph

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"mixtime/internal/graph"
)

// dicycle returns the directed cycle 0→1→…→n-1→0.
func dicycle(n int) *DiGraph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddArc(NodeID(i), NodeID((i+1)%n))
	}
	return b.Build()
}

// dicomplete returns the complete digraph (all ordered pairs).
func dicomplete(n int) *DiGraph {
	b := NewBuilder(n * (n - 1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.AddArc(NodeID(i), NodeID(j))
			}
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0)
	b.AddArc(0, 1)
	b.AddArc(0, 1) // dup
	b.AddArc(1, 0) // reciprocal is distinct
	b.AddArc(2, 2) // self loop dropped
	b.AddNode(3)
	g := b.Build()
	if g.NumNodes() != 4 || g.NumArcs() != 2 {
		t.Fatalf("n=%d arcs=%d", g.NumNodes(), g.NumArcs())
	}
	if !g.HasArc(0, 1) || !g.HasArc(1, 0) || g.HasArc(0, 2) {
		t.Fatal("arc membership wrong")
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 || g.OutDegree(3) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestInOutConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	b := NewBuilder(0)
	n := 100
	b.AddNode(NodeID(n - 1))
	for i := 0; i < 400; i++ {
		b.AddArc(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	g := b.Build()
	var outSum, inSum int64
	for v := 0; v < n; v++ {
		outSum += int64(g.OutDegree(NodeID(v)))
		inSum += int64(g.InDegree(NodeID(v)))
		for _, w := range g.Out(NodeID(v)) {
			found := false
			for _, u := range g.In(w) {
				if u == NodeID(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("arc %d→%d missing from in-list", v, w)
			}
		}
	}
	if outSum != inSum || outSum != g.NumArcs() {
		t.Fatalf("degree sums out=%d in=%d arcs=%d", outSum, inSum, g.NumArcs())
	}
}

// TestBuildMatchesSortedReference: the bucket fill yields exactly the
// deduplicated arc set, out-lists sorted by To and in-lists by From,
// whatever order, repeats and self-loops the arcs arrive in.
func TestBuildMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 60
	b := NewBuilder(0)
	b.AddNode(n - 1)
	seen := map[Arc]bool{}
	for i := 0; i < 2000; i++ {
		a := Arc{NodeID(rng.IntN(n)), NodeID(rng.IntN(n / 2))}
		b.AddArc(a.From, a.To)
		if a.From != a.To {
			seen[a] = true
		}
	}
	var arcs []Arc
	for a := range seen {
		arcs = append(arcs, a)
	}
	slices.SortFunc(arcs, func(x, y Arc) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})
	wantOut := make([][]NodeID, n)
	wantIn := make([][]NodeID, n)
	for _, a := range arcs {
		wantOut[a.From] = append(wantOut[a.From], a.To)
		wantIn[a.To] = append(wantIn[a.To], a.From)
	}
	g := b.Build()
	if g.NumNodes() != n || g.NumArcs() != int64(len(arcs)) {
		t.Fatalf("n=%d arcs=%d, want n=%d arcs=%d", g.NumNodes(), g.NumArcs(), n, len(arcs))
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(g.Out(NodeID(v)), wantOut[v]) || !slices.Equal(g.In(NodeID(v)), wantIn[v]) {
			t.Fatalf("node %d: out %v in %v, want out %v in %v",
				v, g.Out(NodeID(v)), g.In(NodeID(v)), wantOut[v], wantIn[v])
		}
	}
}

func TestSymmetrize(t *testing.T) {
	b := NewBuilder(0)
	b.AddArc(0, 1)
	b.AddArc(1, 0) // reciprocal pair → one undirected edge
	b.AddArc(1, 2)
	g := Symmetrize(b.Build())
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("symmetrized %v", g)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("edges wrong")
	}
}

func TestSCCOnCycleAndDAG(t *testing.T) {
	labels, sizes := StronglyConnectedComponents(dicycle(6))
	if len(sizes) != 1 || sizes[0] != 6 {
		t.Fatalf("cycle SCCs %v", sizes)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("cycle label mismatch")
		}
	}
	// A DAG: every vertex its own SCC.
	b := NewBuilder(0)
	b.AddArc(0, 1)
	b.AddArc(1, 2)
	b.AddArc(0, 2)
	_, sizes = StronglyConnectedComponents(b.Build())
	if len(sizes) != 3 {
		t.Fatalf("DAG SCCs %v", sizes)
	}
}

func TestSCCMixed(t *testing.T) {
	// Two 3-cycles joined by a one-way bridge: two SCCs of size 3.
	b := NewBuilder(0)
	for i := 0; i < 3; i++ {
		b.AddArc(NodeID(i), NodeID((i+1)%3))
		b.AddArc(NodeID(3+i), NodeID(3+(i+1)%3))
	}
	b.AddArc(2, 3)
	labels, sizes := StronglyConnectedComponents(b.Build())
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 3 {
		t.Fatalf("sizes %v", sizes)
	}
	if labels[0] == labels[3] {
		t.Fatal("bridge merged the SCCs")
	}
	lscc, orig := LargestSCC(b.Build())
	if lscc.NumNodes() != 3 || len(orig) != 3 {
		t.Fatalf("largest SCC %v", lscc)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	// A 200k-long path exercises the iterative DFS (recursive Tarjan
	// would blow the stack).
	n := 200_000
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddArc(NodeID(i), NodeID(i+1))
	}
	_, sizes := StronglyConnectedComponents(b.Build())
	if len(sizes) != n {
		t.Fatalf("%d SCCs, want %d", len(sizes), n)
	}
}

func TestChainRequiresStrongConnectivity(t *testing.T) {
	b := NewBuilder(0)
	b.AddArc(0, 1) // not strongly connected
	if _, err := NewChain(b.Build(), 0); err == nil {
		t.Fatal("weakly connected chain accepted")
	}
	if _, err := NewChain(&DiGraph{}, 0); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestChainStationaryOnCompleteDigraph(t *testing.T) {
	// Complete digraph: uniform stationary distribution.
	c, err := NewChain(dicomplete(8), 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Stationary() {
		if math.Abs(p-1.0/8) > 1e-9 {
			t.Fatalf("π = %v", c.Stationary())
		}
	}
}

func TestChainStationaryIsInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	// Random strongly connected digraph: a cycle plus chords.
	b := NewBuilder(0)
	n := 60
	for i := 0; i < n; i++ {
		b.AddArc(NodeID(i), NodeID((i+1)%n))
	}
	for k := 0; k < 150; k++ {
		b.AddArc(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	g := b.Build()
	c, err := NewChain(g, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	pi := append([]float64(nil), c.Stationary()...)
	next := make([]float64, n)
	c.Step(next, pi)
	var diff float64
	for i := range next {
		diff += math.Abs(next[i] - pi[i])
	}
	if diff > 1e-9 {
		t.Fatalf("‖πP − π‖₁ = %g", diff)
	}
}

func TestChainTraceConverges(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	b := NewBuilder(0)
	n := 40
	for i := 0; i < n; i++ {
		b.AddArc(NodeID(i), NodeID((i+1)%n))
	}
	for k := 0; k < 200; k++ {
		b.AddArc(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	c, err := NewChain(b.Build(), 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	tr := c.TraceFrom(0, 300)
	if final := tr.TV[len(tr.TV)-1]; final > 1e-6 {
		t.Fatalf("directed trace TV after 300 steps = %v", final)
	}
}

func TestChainLazyOnPeriodicCycle(t *testing.T) {
	// The pure walk on a directed cycle is periodic and never mixes;
	// the lazy chain converges to uniform.
	g := dicycle(7)
	plain, err := NewChain(g, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	tr := plain.TraceFrom(0, 100)
	if tr.TV[99] < 0.4 {
		t.Fatalf("periodic walk mixed: %v", tr.TV[99])
	}
	lazy, err := NewChain(g, 1e-12, LazyChain())
	if err != nil {
		t.Fatal(err)
	}
	ltr := lazy.TraceFrom(0, 400)
	if ltr.TV[399] > 1e-3 {
		t.Fatalf("lazy directed walk TV %v", ltr.TV[399])
	}
	// Both share the uniform stationary distribution on the cycle.
	for _, p := range plain.Stationary() {
		if math.Abs(p-1.0/7) > 1e-9 {
			t.Fatalf("cycle π = %v", plain.Stationary())
		}
	}
}

// Property: Symmetrize(g) has between max(arcs/2 rounded) and arcs
// edges, and every arc maps to an edge.
func TestQuickSymmetrize(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		b := NewBuilder(0)
		n := 30 + int(seed%30)
		b.AddNode(NodeID(n - 1))
		for k := 0; k < 3*n; k++ {
			b.AddArc(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
		}
		dg := b.Build()
		ug := Symmetrize(dg)
		if ug.Validate() != nil {
			return false
		}
		if ug.NumEdges() > dg.NumArcs() || 2*ug.NumEdges() < dg.NumArcs() {
			return false
		}
		ok := true
		for v := 0; v < n && ok; v++ {
			for _, w := range dg.Out(NodeID(v)) {
				if !ug.HasEdge(NodeID(v), w) {
					ok = false
					break
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: SCC labels partition the vertex set and arcs within an
// SCC stay within it under Subgraph extraction.
func TestQuickSCCPartition(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		b := NewBuilder(0)
		n := 20 + int(seed%40)
		b.AddNode(NodeID(n - 1))
		for k := 0; k < 2*n; k++ {
			b.AddArc(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
		}
		g := b.Build()
		labels, sizes := StronglyConnectedComponents(g)
		var total int64
		for _, s := range sizes {
			total += s
		}
		if total != int64(n) {
			return false
		}
		for _, l := range labels {
			if l < 0 || int(l) >= len(sizes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetrizePreservesWalkEquivalence(t *testing.T) {
	// On a symmetric digraph (every arc reciprocated) the directed
	// chain equals the undirected one: same stationary distribution.
	b := NewBuilder(0)
	edges := [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	for _, e := range edges {
		b.AddArc(e[0], e[1])
		b.AddArc(e[1], e[0])
	}
	dg := b.Build()
	c, err := NewChain(dg, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	ug := Symmetrize(dg)
	twoM := float64(2 * ug.NumEdges())
	for v := 0; v < ug.NumNodes(); v++ {
		want := float64(ug.Degree(graph.NodeID(v))) / twoM
		if math.Abs(c.Stationary()[v]-want) > 1e-9 {
			t.Fatalf("π[%d] = %v, want deg/2m = %v", v, c.Stationary()[v], want)
		}
	}
}
