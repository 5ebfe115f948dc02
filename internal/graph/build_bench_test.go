package graph_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

// BenchmarkBuild times Builder.Build on facebook-A@0.02's edge list:
// gen.CommunityBA with 4 communities of 5,000 nodes, 20 attachments
// per node and 3,200 bridges, 402k edges. "sorted" feeds them in
// (u, v) order, as Edges-fed generators do; "shuffled" in a random
// order, as an edge-list file may. Run it with -benchmem: B/op is
// what one Build allocates.
func BenchmarkBuild(b *testing.B) {
	g := gen.CommunityBA(4, 5000, 20, 3200, rand.New(rand.NewPCG(1, 2)))
	var sorted []graph.Edge
	g.Edges(func(u, v graph.NodeID) bool {
		sorted = append(sorted, graph.Edge{U: u, V: v})
		return true
	})
	shuffled := slices.Clone(sorted)
	rand.New(rand.NewPCG(3, 4)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, c := range []struct {
		name  string
		edges []graph.Edge
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			bl := graph.NewBuilder(len(c.edges))
			for _, e := range c.edges {
				bl.AddEdge(e.U, e.V)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bl.Build()
			}
		})
	}
}
