package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// ring returns the cycle C_n.
func ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return b.Build()
}

// randomGraph returns a G(n, p) sample from a fixed-seed generator.
func randomGraph(n int, p float64, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	b := NewBuilder(0)
	b.AddNode(NodeID(n - 1))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := (&Builder{}).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
	if !IsConnected(g) {
		// Degenerate convention: the empty graph is connected.
		t.Fatal("empty graph reported disconnected")
	}
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop: dropped
	b.AddNode(3)    // isolated node
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("n = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 || g.Degree(3) != 0 {
		t.Fatal("self-loop or phantom edge survived")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdgeAndSlot(t *testing.T) {
	g := ring(5)
	for i := 0; i < 5; i++ {
		u, v := NodeID(i), NodeID((i+1)%5)
		if !g.HasEdge(u, v) || !g.HasEdge(v, u) {
			t.Fatalf("ring edge {%d,%d} missing", u, v)
		}
	}
	if g.HasEdge(0, 2) {
		t.Fatal("non-edge {0,2} reported present")
	}
	if got := g.EdgeSlot(0, 1); got < 0 || g.Neighbors(0)[got] != 1 {
		t.Fatalf("EdgeSlot(0,1) = %d", got)
	}
	if got := g.EdgeSlot(0, 3); got != -1 {
		t.Fatalf("EdgeSlot(0,3) = %d, want -1", got)
	}
}

func TestDegreeStats(t *testing.T) {
	g := complete(6)
	if g.MinDegree() != 5 || g.MaxDegree() != 5 {
		t.Fatalf("K6 degrees min=%d max=%d", g.MinDegree(), g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 5 {
		t.Fatalf("K6 avg degree = %v", got)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := complete(5)
	count := 0
	g.Edges(func(u, v NodeID) bool {
		if u >= v {
			t.Fatalf("edge iteration yielded u=%d >= v=%d", u, v)
		}
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("K5 yielded %d edges, want 10", count)
	}
	count = 0
	g.Edges(func(u, v NodeID) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop yielded %d edges", count)
	}
}

func TestFromEdgesRangeCheck(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	g, err := FromEdges(4, []Edge{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Fatalf("got %v", g)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddNode(5)
	g := b.Build()
	labels, sizes := ConnectedComponents(g)
	if len(sizes) != 3 {
		t.Fatalf("%d components, want 3", len(sizes))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("triangle component split")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("pair component wrong")
	}
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(0)
	// component A: path of 4 nodes; component B: triangle.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 4)
	g := b.Build()
	lcc, orig := LargestComponent(g)
	if lcc.NumNodes() != 4 {
		t.Fatalf("LCC has %d nodes, want 4", lcc.NumNodes())
	}
	if len(orig) != 4 || orig[0] != 0 {
		t.Fatalf("orig mapping %v", orig)
	}
	if !IsConnected(lcc) {
		t.Fatal("LCC not connected")
	}
	// A connected graph is its own largest component: the same
	// *Graph comes back, with the identity map.
	conn, ids := LargestComponent(lcc)
	if conn != lcc || len(ids) != lcc.NumNodes() {
		t.Fatalf("connected input copied (%p vs %p) or map of %d nodes", conn, lcc, len(ids))
	}
	for v, id := range ids {
		if id != NodeID(v) {
			t.Fatalf("identity map %v", ids)
		}
	}
}

func TestSubgraphMapping(t *testing.T) {
	g := complete(6)
	sub, orig := Subgraph(g, []NodeID{5, 1, 3, 1}) // duplicate 1 tolerated
	if sub.NumNodes() != 3 {
		t.Fatalf("n = %d, want 3", sub.NumNodes())
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3 (triangle)", sub.NumEdges())
	}
	want := []NodeID{5, 1, 3}
	for i, v := range want {
		if orig[i] != v {
			t.Fatalf("orig = %v, want %v", orig, want)
		}
	}
}

func TestTrimToCore(t *testing.T) {
	// Triangle with a pendant path attached: trimming to minDeg 2
	// must remove the whole path (cascade), keeping the triangle.
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	core, orig := Trim(g, 2)
	if core.NumNodes() != 3 {
		t.Fatalf("2-core has %d nodes, want 3 (got map %v)", core.NumNodes(), orig)
	}
	if core.MinDegree() < 2 {
		t.Fatalf("2-core min degree %d", core.MinDegree())
	}
	// Trimming harder than the densest part empties the graph.
	empty, _ := Trim(g, 3)
	if empty.NumNodes() != 0 {
		t.Fatalf("3-core of a triangle+path has %d nodes", empty.NumNodes())
	}
}

func TestTrimPreservesWhenAlreadyCore(t *testing.T) {
	g := complete(5)
	core, _ := Trim(g, 3)
	if core.NumNodes() != 5 || core.NumEdges() != 10 {
		t.Fatalf("K5 trimmed to %v", core)
	}
}

func TestCorenessKnown(t *testing.T) {
	// Triangle with pendant path: triangle nodes core 2, path core 1.
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	core := Coreness(g)
	want := []int{2, 2, 2, 1, 1}
	for v, w := range want {
		if core[v] != w {
			t.Fatalf("coreness = %v, want %v", core, want)
		}
	}
	// K5: all coreness 4.
	for _, c := range Coreness(complete(5)) {
		if c != 4 {
			t.Fatalf("K5 coreness %d", c)
		}
	}
	if len(Coreness(&Graph{})) != 0 {
		t.Fatal("empty coreness")
	}
}

// Property: Trim(g,k) keeps exactly the nodes with coreness ≥ k.
func TestQuickCorenessMatchesTrim(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(70, 0.05, seed)
		core := Coreness(g)
		for k := 1; k <= 4; k++ {
			trimmed, orig := Trim(g, k)
			kept := map[NodeID]bool{}
			for _, v := range orig {
				kept[v] = true
			}
			_ = trimmed
			for v := 0; v < g.NumNodes(); v++ {
				if kept[NodeID(v)] != (core[v] >= k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIsBipartite(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"even ring", ring(6), true},
		{"odd ring", ring(7), false},
		{"K4", complete(4), false},
		{"single edge", complete(2), true},
		{"empty", &Graph{}, true},
	}
	for _, c := range cases {
		if got := IsBipartite(c.g); got != c.want {
			t.Errorf("%s: IsBipartite = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBFSOrder(t *testing.T) {
	// Star: center 0 with leaves 1..4. BFS from 0 visits 0 at depth 0,
	// leaves at depth 1.
	b := NewBuilder(0)
	for i := 1; i <= 4; i++ {
		b.AddEdge(0, NodeID(i))
	}
	g := b.Build()
	depths := map[NodeID]int{}
	BFS(g, 0, func(v NodeID, d int) bool { depths[v] = d; return true })
	if depths[0] != 0 {
		t.Fatal("root depth != 0")
	}
	for i := 1; i <= 4; i++ {
		if depths[NodeID(i)] != 1 {
			t.Fatalf("leaf %d at depth %d", i, depths[NodeID(i)])
		}
	}
}

func TestBFSSampleSizeAndConnectivity(t *testing.T) {
	g := randomGraph(200, 0.05, 7)
	lcc, _ := LargestComponent(g)
	for _, k := range []int{1, 10, 50, lcc.NumNodes(), lcc.NumNodes() + 100} {
		sub, _ := BFSSubgraph(lcc, 0, k)
		wantN := k
		if wantN > lcc.NumNodes() {
			wantN = lcc.NumNodes()
		}
		if sub.NumNodes() != wantN {
			t.Fatalf("BFS sample k=%d: n=%d want %d", k, sub.NumNodes(), wantN)
		}
		if !IsConnected(sub) {
			t.Fatalf("BFS sample k=%d disconnected", k)
		}
	}
}

// Property: any graph built from a random edge list validates, has
// symmetric adjacency, and degree sum equal to 2m.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBuilder(0)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(NodeID(raw[i]%512), NodeID(raw[i+1]%512))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		var degSum int64
		for v := 0; v < g.NumNodes(); v++ {
			degSum += int64(g.Degree(NodeID(v)))
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: component sizes sum to n, and LCC size equals the max.
func TestQuickComponents(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 20 + int(seed%100)
		b := NewBuilder(0)
		b.AddNode(NodeID(n - 1))
		for i := 0; i < n; i++ {
			b.AddEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
		}
		g := b.Build()
		_, sizes := ConnectedComponents(g)
		var total int64
		var max int64
		for _, s := range sizes {
			total += s
			if s > max {
				max = s
			}
		}
		if total != int64(g.NumNodes()) {
			return false
		}
		lcc, _ := LargestComponent(g)
		return int64(lcc.NumNodes()) == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Trim output always has min degree >= k or is empty, and
// never gains edges.
func TestQuickTrim(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		g := randomGraph(80, 0.04, seed)
		core, orig := Trim(g, k)
		if core.NumNodes() == 0 {
			return true
		}
		if core.MinDegree() < k {
			return false
		}
		if core.NumEdges() > g.NumEdges() {
			return false
		}
		// Every surviving edge must exist in the original graph.
		ok := true
		core.Edges(func(u, v NodeID) bool {
			if !g.HasEdge(orig[u], orig[v]) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
