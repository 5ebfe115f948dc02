package graph

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// referenceBuild is the sort-based Build the counting fill replaced:
// sort the recorded edges, drop duplicates, then lay the CSR out.
// FuzzBuild holds Build to it byte for byte.
func referenceBuild(b *Builder) *Graph {
	if !b.any {
		return &Graph{}
	}
	n := int(b.maxID) + 1
	es := slices.Clone(b.edges)
	slices.SortFunc(es, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V))
	})
	es = slices.Compact(es)
	offsets := make([]uint32, n+1)
	for _, e := range es {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]NodeID, offsets[n])
	cursor := slices.Clone(offsets[:n])
	for _, e := range es {
		neighbors[cursor[e.U]] = e.V
		cursor[e.U]++
		neighbors[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(neighbors[offsets[v]:offsets[v+1]])
	}
	return &Graph{offsets: offsets, neighbors: neighbors}
}

// referenceSubgraph induces the subgraph the way Subgraph did before
// it wrote rows from the CSR: every kept edge goes through a Builder.
func referenceSubgraph(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	const absent = ^NodeID(0)
	remap := make([]NodeID, g.NumNodes())
	for i := range remap {
		remap[i] = absent
	}
	var orig []NodeID
	for _, v := range nodes {
		if remap[v] == absent {
			remap[v] = NodeID(len(orig))
			orig = append(orig, v)
		}
	}
	b := NewBuilder(0)
	if len(orig) > 0 {
		b.AddNode(NodeID(len(orig) - 1))
	}
	for newU, oldU := range orig {
		for _, oldV := range g.Neighbors(oldU) {
			if newV := remap[oldV]; newV != absent && NodeID(newU) < newV {
				b.AddEdge(NodeID(newU), newV)
			}
		}
	}
	return referenceBuild(b), orig
}

// fuzzBuilder decodes data as 3-byte ops (op, a, b): op%4 of 0 or 1
// adds {a, b}, 2 adds it reversed as {b, a}, 3 adds node a. Equal
// bytes give self-loops, repeated ops duplicates.
func fuzzBuilder(data []byte) *Builder {
	b := NewBuilder(0)
	for i := 0; i+2 < len(data); i += 3 {
		u, v := NodeID(data[i+1]), NodeID(data[i+2])
		switch data[i] % 4 {
		case 0, 1:
			b.AddEdge(u, v)
		case 2:
			b.AddEdge(v, u)
		case 3:
			b.AddNode(u)
		}
	}
	return b
}

// FuzzBuild holds Build to referenceBuild, and Subgraph to the
// Builder path, on duplicates, reversed pairs, self-loops, AddNode
// tails and the empty builder; Subgraph gets an ascending node list
// (its monotone relabeling) and the same nodes shuffled (BFS-like).
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 1})                   // duplicate, reversed
	f.Add([]byte{0, 2, 2, 0, 0, 1, 3, 9, 0})                   // self-loop, AddNode tail
	f.Add([]byte{3, 5, 0})                                     // AddNode only
	f.Add([]byte{0, 4, 3, 0, 3, 2, 0, 2, 1, 0, 1, 0, 0, 4, 0}) // rows out of order
	rng := rand.New(rand.NewPCG(1, 2))
	for _, size := range []int{60, 900} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.IntN(256))
		}
		f.Add(data)
	}
	var hub []byte // node 0's row arrives shuffled and long
	for _, v := range rng.Perm(255) {
		hub = append(hub, 0, 0, byte(v+1))
	}
	f.Add(hub)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBuilder(data)
		g := b.Build()
		if want := referenceBuild(b); !reflect.DeepEqual(g, want) {
			t.Fatalf("Build differs from the sort reference:\n got  %v %v\n want %v %v",
				g.offsets, g.neighbors, want.offsets, want.neighbors)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// Keep the nodes whose index a data byte marks, listed twice
		// so Subgraph must drop the repeats.
		var nodes []NodeID
		for v := 0; v < g.NumNodes(); v++ {
			if len(data) > 0 && data[v%len(data)]%3 != 0 {
				nodes = append(nodes, NodeID(v))
			}
		}
		nodes = append(nodes, nodes...)
		shuffled := slices.Clone(nodes)
		rand.New(rand.NewPCG(uint64(len(data)), 7)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, list := range [][]NodeID{nodes, shuffled} {
			sub, orig := Subgraph(g, list)
			wantSub, wantOrig := referenceSubgraph(g, list)
			if !reflect.DeepEqual(sub, wantSub) || !slices.Equal(orig, wantOrig) {
				t.Fatalf("Subgraph(%v) differs from the Builder path:\n got  %v %v\n want %v %v",
					list, sub.offsets, sub.neighbors, wantSub.offsets, wantSub.neighbors)
			}
			if err := sub.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
