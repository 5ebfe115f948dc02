package graph

import (
	"testing"
)

// TestCompactOffsetsChosen: every realistically sized graph must land
// on the uint32 offset form — that is the whole bandwidth win.
func TestCompactOffsetsChosen(t *testing.T) {
	g := ring(10)
	if g.Offsets32() == nil {
		t.Fatal("builder graph did not use compact offsets")
	}
	if g.Offsets64() != nil {
		t.Fatal("compact graph also carries wide offsets")
	}
	if len(g.Offsets32()) != g.NumNodes()+1 {
		t.Fatalf("offsets length %d, want %d", len(g.Offsets32()), g.NumNodes()+1)
	}
}

// TestFromCSR32Adopts: the compact constructor must retain the exact
// arrays (zero-copy loading is its contract).
func TestFromCSR32Adopts(t *testing.T) {
	off := []uint32{0, 1, 2}
	adj := []NodeID{1, 0}
	g, err := FromCSR32(off, adj)
	if err != nil {
		t.Fatal(err)
	}
	if &g.Offsets32()[0] != &off[0] || &g.Adjacency()[0] != &adj[0] {
		t.Fatal("FromCSR32 copied its arrays")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || g.Degree(0) != 1 {
		t.Fatalf("adopted graph wrong shape: %v", g)
	}
}

// TestFromCSR32RejectsInvalid: structural faults in a snapshot's
// arrays are errors, never a graph that panics later.
func TestFromCSR32RejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		off  []uint32
		adj  []NodeID
	}{
		{"no offsets with neighbors", nil, []NodeID{1}},
		{"bounds mismatch", []uint32{0, 1}, nil},
		{"non-monotone", []uint32{0, 2, 1, 2}, []NodeID{1, 2}},
		{"self loop", []uint32{0, 1}, []NodeID{0}},
		{"asymmetric", []uint32{0, 1, 1}, []NodeID{1}},
	}
	for _, c := range cases {
		if _, err := FromCSR32(c.off, c.adj); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

// wide returns g rebuilt on the int64 offset path, as a 4B+-edge
// graph would be stored, so the fallback code paths stay tested
// without a 16 GiB fixture.
func wide(g *Graph) *Graph {
	n := g.NumNodes()
	off := make([]int64, n+1)
	for v := 0; v <= n; v++ {
		off[v] = g.offsetAt(v)
	}
	return &Graph{off64: off, neighbors: g.Adjacency()}
}

// TestWideOffsetsAgree runs the accessor surface on the wide twin of
// a compact graph and demands identical answers everywhere.
func TestWideOffsetsAgree(t *testing.T) {
	g := ring(50)
	w := wide(g)
	if w.Offsets32() != nil || w.Offsets64() == nil {
		t.Fatal("wide twin not on the int64 path")
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("wide twin invalid: %v", err)
	}
	if w.NumNodes() != g.NumNodes() || w.NumEdges() != g.NumEdges() {
		t.Fatal("shape mismatch")
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := NodeID(v)
		if w.Degree(id) != g.Degree(id) || w.AdjacencyOffset(id) != g.AdjacencyOffset(id) {
			t.Fatalf("node %d: degree/offset mismatch", v)
		}
		cadj, wadj := g.Neighbors(id), w.Neighbors(id)
		for i := range cadj {
			if cadj[i] != wadj[i] {
				t.Fatalf("node %d neighbor %d mismatch", v, i)
			}
		}
	}
	cp, wp := NewShardPlan(g, 4), NewShardPlan(w, 4)
	for i := 0; i < cp.NumShards(); i++ {
		clo, chi := cp.Bounds(i)
		wlo, whi := wp.Bounds(i)
		if clo != wlo || chi != whi {
			t.Fatalf("shard %d bounds differ: [%d,%d) vs [%d,%d)", i, clo, chi, wlo, whi)
		}
	}
}
