package maxflow

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMaxFlowClassic(t *testing.T) {
	// The textbook 6-node example with max flow 23.
	nw := NewNetwork(6)
	nw.AddEdge(0, 1, 16)
	nw.AddEdge(0, 2, 13)
	nw.AddEdge(1, 2, 10)
	nw.AddEdge(2, 1, 4)
	nw.AddEdge(1, 3, 12)
	nw.AddEdge(3, 2, 9)
	nw.AddEdge(2, 4, 14)
	nw.AddEdge(4, 3, 7)
	nw.AddEdge(3, 5, 20)
	nw.AddEdge(4, 5, 4)
	f, err := nw.MaxFlow(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f != 23 {
		t.Fatalf("flow = %d, want 23", f)
	}
}

func TestMaxFlowSimplePath(t *testing.T) {
	nw := NewNetwork(3)
	nw.AddEdge(0, 1, 5)
	nw.AddEdge(1, 2, 3)
	f, err := nw.MaxFlow(0, 2)
	if err != nil || f != 3 {
		t.Fatalf("flow %d err %v", f, err)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	nw := NewNetwork(4)
	nw.AddEdge(0, 1, 5)
	nw.AddEdge(2, 3, 5)
	f, err := nw.MaxFlow(0, 3)
	if err != nil || f != 0 {
		t.Fatalf("flow %d err %v", f, err)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	nw := NewNetwork(2)
	if _, err := nw.MaxFlow(0, 0); err == nil {
		t.Fatal("s==t accepted")
	}
	if _, err := nw.MaxFlow(-1, 1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := nw.MaxFlow(0, 5); err == nil {
		t.Fatal("out-of-range sink accepted")
	}
}

func TestUndirectedEdgeFlow(t *testing.T) {
	// A ring of undirected unit edges: two disjoint paths s→t.
	nw := NewNetwork(4)
	for v := 0; v < 4; v++ { // each undirected edge is two arcs
		nw.AddEdge(v, (v+1)%4, 1)
		nw.AddEdge((v+1)%4, v, 1)
	}
	f, err := nw.MaxFlow(0, 2)
	if err != nil || f != 2 {
		t.Fatalf("ring flow %d err %v", f, err)
	}
}

func TestBipartiteMatchingViaFlow(t *testing.T) {
	// 3×3 bipartite: left {1,2,3}, right {4,5,6}, source 0, sink 7.
	// Perfect matching exists.
	nw := NewNetwork(8)
	for l := 1; l <= 3; l++ {
		nw.AddEdge(0, l, 1)
		nw.AddEdge(l+3, 7, 1)
	}
	nw.AddEdge(1, 4, 1)
	nw.AddEdge(1, 5, 1)
	nw.AddEdge(2, 5, 1)
	nw.AddEdge(3, 5, 1)
	nw.AddEdge(3, 6, 1)
	f, err := nw.MaxFlow(0, 7)
	if err != nil || f != 3 {
		t.Fatalf("matching %d err %v", f, err)
	}
}

func TestMinCutSide(t *testing.T) {
	// Bottleneck edge 1→2 with capacity 1: cut separates {0,1}.
	nw := NewNetwork(4)
	nw.AddEdge(0, 1, 10)
	nw.AddEdge(1, 2, 1)
	nw.AddEdge(2, 3, 10)
	f, err := nw.MaxFlow(0, 3)
	if err != nil || f != 1 {
		t.Fatalf("flow %d err %v", f, err)
	}
	side := minCutSide(nw, 0)
	if !side[0] || !side[1] || side[2] || side[3] {
		t.Fatalf("cut side %v", side)
	}
}

// Property: max flow equals the capacity of the min cut it certifies,
// and never exceeds the source's outgoing capacity.
func TestQuickMaxFlowMinCut(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xf10))
		n := 6 + int(seed%10)
		type arc struct {
			u, v int
			c    int64
		}
		var arcs []arc
		nw := NewNetwork(n)
		var srcCap int64
		for k := 0; k < 3*n; k++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u == v {
				continue
			}
			c := int64(1 + rng.IntN(9))
			nw.AddEdge(u, v, c)
			arcs = append(arcs, arc{u, v, c})
			if u == 0 {
				srcCap += c
			}
		}
		flow, err := nw.MaxFlow(0, n-1)
		if err != nil {
			return false
		}
		if flow > srcCap {
			return false
		}
		// Cut capacity across (S, V∖S) must equal the flow.
		side := minCutSide(nw, 0)
		if side[n-1] {
			return false // sink must be separated
		}
		var cut int64
		for _, a := range arcs {
			if side[a.u] && !side[a.v] {
				cut += a.c
			}
		}
		return cut == flow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// minCutSide returns the source side of a minimum s-t cut after
// MaxFlow has run: the nodes reachable from s in the residual graph.
func minCutSide(nw *Network, s int) []bool {
	side := make([]bool, nw.n)
	queue := []int32{int32(s)}
	side[s] = true
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ei := range nw.heads[v] {
			e := &nw.edges[ei]
			if e.cap > 0 && !side[e.to] {
				side[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return side
}
