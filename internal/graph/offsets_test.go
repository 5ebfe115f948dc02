package graph

import (
	"testing"
)

// TestCompactOffsetsChosen: every built graph lands on the uint32
// offset form the hot kernels read.
func TestCompactOffsetsChosen(t *testing.T) {
	g := ring(10)
	if g.Offsets32() == nil {
		t.Fatal("builder graph did not use compact offsets")
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
