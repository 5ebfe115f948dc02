package graph

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// shardTestGraph builds a connected graph with a deliberately skewed
// degree profile: a hub wired to everything plus a random tree.
func shardTestGraph(n int, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 99))
	b := NewBuilder(0)
	for i := 1; i < n; i++ {
		b.AddEdge(NodeID(rng.IntN(i)), NodeID(i))
	}
	for i := 1; i < n; i++ {
		b.AddEdge(0, NodeID(i)) // hub
	}
	return b.Build()
}

func TestShardPlanCoversAllVertices(t *testing.T) {
	g := shardTestGraph(137, 3)
	for _, shards := range []int{1, 2, 3, 7, 16, 137, 1000} {
		p := NewShardPlan(g, shards)
		if p.NumShards() < 1 {
			t.Fatalf("shards=%d: plan has %d shards", shards, p.NumShards())
		}
		next := 0
		for i := 0; i < p.NumShards(); i++ {
			lo, hi := p.Bounds(i)
			if lo != next {
				t.Fatalf("shards=%d: shard %d starts at %d, want %d", shards, i, lo, next)
			}
			if hi < lo {
				t.Fatalf("shards=%d: shard %d is [%d, %d)", shards, i, lo, hi)
			}
			next = hi
		}
		if next != g.NumNodes() {
			t.Fatalf("shards=%d: plan ends at %d, want %d", shards, next, g.NumNodes())
		}
	}
}

func TestShardPlanBalancesEdges(t *testing.T) {
	// On a uniform-degree graph every shard should hold close to
	// total/shards adjacency entries.
	n := 400
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%n)) // ring: degree 2 everywhere
	}
	g := b.Build()
	shards := 8
	p := NewShardPlan(g, shards)
	total := 2 * int(g.NumEdges())
	ideal := total / shards
	for i := 0; i < p.NumShards(); i++ {
		lo, hi := p.Bounds(i)
		var adj int
		for v := lo; v < hi; v++ {
			adj += g.Degree(NodeID(v))
		}
		// Contiguity can misplace at most one vertex's adjacency (here
		// degree 2) per boundary.
		if adj < ideal-4 || adj > ideal+4 {
			t.Fatalf("shard %d holds %d adjacency entries, want ≈%d", i, adj, ideal)
		}
	}
}

func TestShardPlanSkewedHub(t *testing.T) {
	// A hub with more than 1/shards of all edges forces empty shards;
	// the plan must stay valid and Do must still cover every vertex.
	g := shardTestGraph(100, 7)
	p := NewShardPlan(g, 10)
	covered := make([]bool, g.NumNodes())
	p.Do(1, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			covered[v] = true
		}
	})
	for v, ok := range covered {
		if !ok {
			t.Fatalf("vertex %d not covered", v)
		}
	}
}

func TestShardPlanDoParallel(t *testing.T) {
	g := shardTestGraph(211, 11)
	p := NewShardPlan(g, 16)
	for _, workers := range []int{2, 4, 32} {
		var mu sync.Mutex
		count := make([]int, g.NumNodes())
		p.Do(workers, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for v := lo; v < hi; v++ {
				count[v]++
			}
		})
		for v, c := range count {
			if c != 1 {
				t.Fatalf("workers=%d: vertex %d visited %d times", workers, v, c)
			}
		}
	}
}

func TestShardPlanWorkersExceedShards(t *testing.T) {
	// Do clamps workers to the shard count; a tiny plan under a huge
	// worker fan-out must still visit every vertex exactly once and
	// return (no goroutine waits on a shard that never comes).
	g := shardTestGraph(50, 17)
	p := NewShardPlan(g, 2)
	var mu sync.Mutex
	count := make([]int, g.NumNodes())
	p.Do(64, func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		for v := lo; v < hi; v++ {
			count[v]++
		}
	})
	for v, c := range count {
		if c != 1 {
			t.Fatalf("vertex %d visited %d times", v, c)
		}
	}
}

func TestShardPlanZeroEdgeGraph(t *testing.T) {
	// All-isolated vertices: every CSR offset is zero, so every cut
	// target lands at 0 and all adjacency-balanced shards collapse to
	// the front. The plan must stay well-formed and cover [0, n).
	b := NewBuilder(0)
	b.AddNode(29)
	g := b.Build()
	if g.NumNodes() != 30 || g.NumEdges() != 0 {
		t.Fatalf("builder produced n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	p := NewShardPlan(g, 4)
	covered := make([]bool, g.NumNodes())
	p.Do(4, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			covered[v] = true
		}
	})
	for v, ok := range covered {
		if !ok {
			t.Fatalf("vertex %d not covered", v)
		}
	}
}

func TestShardPlanMoreShardsThanVertices(t *testing.T) {
	// Plans never exceed one shard per vertex: shards clamp to n. The
	// skewed degree profile still permits empty shards and multi-vertex
	// shards — only the count and the cover are guaranteed.
	g := shardTestGraph(5, 23)
	p := NewShardPlan(g, 64)
	if p.NumShards() != g.NumNodes() {
		t.Fatalf("plan has %d shards, want %d (clamped to n)", p.NumShards(), g.NumNodes())
	}
	count := make([]int, g.NumNodes())
	p.Do(1, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			count[v]++
		}
	})
	for v, c := range count {
		if c != 1 {
			t.Fatalf("vertex %d visited %d times", v, c)
		}
	}
}

func TestShardPlanEmptyGraph(t *testing.T) {
	p := NewShardPlan(&Graph{}, 4)
	if p.NumShards() != 0 {
		// A zero-vertex plan has a single [0,0) bound pair at most; Do
		// must simply not call fn.
		for i := 0; i < p.NumShards(); i++ {
			if lo, hi := p.Bounds(i); lo != hi {
				t.Fatalf("empty graph shard [%d, %d)", lo, hi)
			}
		}
	}
	called := false
	p.Do(4, func(lo, hi int) { called = true })
	if called {
		t.Fatal("Do called fn on empty graph")
	}
}

// TestAdjacencyOffset: consecutive offsets delimit each node's slice
// of the adjacency array, so their difference is its degree.
func TestAdjacencyOffset(t *testing.T) {
	g := shardTestGraph(60, 13)
	off := g.Offsets32()
	if off[0] != 0 || int(off[g.NumNodes()]) != len(g.Adjacency()) {
		t.Fatalf("offsets span [%d, %d], want [0, %d]", off[0], off[g.NumNodes()], len(g.Adjacency()))
	}
	for v := 0; v < g.NumNodes(); v++ {
		if d := off[v+1] - off[v]; int(d) != g.Degree(NodeID(v)) {
			t.Fatalf("offset delta at %d = %d, want degree %d", v, d, g.Degree(NodeID(v)))
		}
		if nb := g.Neighbors(NodeID(v)); len(nb) > 0 && &nb[0] != &g.Adjacency()[off[v]] {
			t.Fatalf("Neighbors(%d) does not start at adjacency offset %d", v, off[v])
		}
	}
}

func TestShardStats(t *testing.T) {
	g := shardTestGraph(500, 5)
	total := int64(2) * g.NumEdges()

	// One shard holds everything: Min = Max = Mean = 2m, Imbalance 1.
	one := NewShardPlan(g, 1).Stats(g)
	if one.Shards != 1 || one.MinAdj != total || one.MaxAdj != total {
		t.Fatalf("1-shard stats = %+v, want all adjacency (%d) in one shard", one, total)
	}
	if one.Imbalance != 1 {
		t.Errorf("1-shard imbalance = %v, want 1", one.Imbalance)
	}

	// Multiple shards must partition the adjacency exactly and keep
	// the invariants Min ≤ Mean ≤ Max and Imbalance = Max/Mean ≥ 1.
	for _, shards := range []int{2, 4, 8, 16} {
		st := NewShardPlan(g, shards).Stats(g)
		if sum := int64(st.MeanAdj*float64(st.Shards) + 0.5); sum != total {
			t.Errorf("shards=%d: adjacency sums to %d, want %d", shards, sum, total)
		}
		if float64(st.MinAdj) > st.MeanAdj || st.MeanAdj > float64(st.MaxAdj) {
			t.Errorf("shards=%d: min %d ≤ mean %.1f ≤ max %d violated",
				shards, st.MinAdj, st.MeanAdj, st.MaxAdj)
		}
		if st.Imbalance < 1 {
			t.Errorf("shards=%d: imbalance %v < 1", shards, st.Imbalance)
		}
	}

	// An empty plan yields zero stats rather than dividing by zero.
	empty := NewShardPlan(&Graph{}, 4).Stats(&Graph{})
	if empty.Shards != 0 || empty.Imbalance != 0 {
		t.Errorf("empty-graph stats = %+v, want zeros", empty)
	}
}
