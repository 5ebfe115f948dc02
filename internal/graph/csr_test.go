package graph

import (
	"math/rand/v2"
	"strings"
	"testing"
)

func TestCSRRoundTrip(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddNode(4) // trailing isolated nodes survive
	g := b.Build()
	offsets, neighbors := g.Offsets32(), g.Adjacency()
	if len(offsets) != 6 || len(neighbors) != 6 {
		t.Fatalf("CSR sizes = %d/%d, want n+1 = 6 and 2m = 6", len(offsets), len(neighbors))
	}
	back, err := FromCSR32(offsets, neighbors)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip %d/%d, want %d/%d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	g.Edges(func(u, v NodeID) bool {
		if !back.HasEdge(u, v) {
			t.Fatalf("edge %d-%d lost", u, v)
		}
		return true
	})
}

func TestCSRRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	b := NewBuilder(0)
	for i := 0; i < 500; i++ {
		u, v := NodeID(rng.IntN(100)), NodeID(rng.IntN(100))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	back, err := FromCSR32(g.Offsets32(), g.Adjacency())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("edges = %d, want %d", back.NumEdges(), g.NumEdges())
	}
}

func TestFromCSREmpty(t *testing.T) {
	g, err := FromCSR32(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty CSR produced %d/%d", g.NumNodes(), g.NumEdges())
	}
	if _, err := FromCSR32(nil, []NodeID{1}); err == nil {
		t.Fatal("neighbors without offsets accepted")
	}
}

func TestFromCSRRejectsInvalid(t *testing.T) {
	cases := []struct {
		name      string
		offsets   []uint32
		neighbors []NodeID
		want      string
	}{
		{"non-monotone", []uint32{0, 2, 1, 2}, []NodeID{1, 2, 0}, "invalid CSR"},
		{"out-of-range neighbor", []uint32{0, 1, 2}, []NodeID{5, 0}, "invalid CSR"},
		{"asymmetric", []uint32{0, 1, 1}, []NodeID{1}, "invalid CSR"},
		{"self-loop", []uint32{0, 1, 2}, []NodeID{0, 1}, "invalid CSR"},
		{"unsorted adjacency", []uint32{0, 2, 3, 4}, []NodeID{2, 1, 0, 0}, "invalid CSR"},
	}
	for _, c := range cases {
		if _, err := FromCSR32(c.offsets, c.neighbors); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
