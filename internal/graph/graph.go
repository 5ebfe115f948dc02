// Package graph provides a compact, immutable undirected graph in
// compressed sparse row (CSR) form, together with the structural
// transformations used throughout the mixing-time measurement
// methodology: largest-connected-component extraction, low-degree
// trimming, BFS sampling, and induced subgraphs.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected;
// directed inputs are symmetrized at build time, matching the
// preprocessing used by the paper and by the Sybil-defense literature
// it measures. CSR offsets are uint32, so a graph holds at most 2³¹−1
// undirected edges; Builder.Build panics when it has recorded more,
// duplicates included.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a vertex. Vertices of a Graph with n nodes are the
// contiguous range [0, n).
type NodeID = uint32

// MaxNodes is the largest node count a Graph supports.
const MaxNodes = math.MaxUint32 - 1

// Graph is an immutable simple undirected graph in CSR form. The zero
// value is an empty graph. All methods are safe for concurrent use.
//
// Offsets are uint32, so the adjacency length 2m is at most 2³²−1: a
// graph holds fewer than 2³¹ undirected edges (≈16 GiB of adjacency),
// which covers every dataset of the paper. Against int64 offsets this
// halves the offset-array traffic of every CSR pass, which on
// bandwidth-bound kernels is measurable; see DESIGN.md §12.
type Graph struct {
	offsets   []uint32 // len n+1; nil on an empty graph
	neighbors []NodeID
}

// NumNodes returns the number of vertices n.
func (g *Graph) NumNodes() int {
	if g.offsets == nil {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges m. Each edge {u,v}
// is counted once.
func (g *Graph) NumEdges() int64 { return int64(len(g.neighbors)) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the adjacency list of v, sorted ascending. The
// returned slice aliases the graph's internal storage and must not be
// modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// Offsets32 returns the CSR offset array (length NumNodes+1), or nil
// when the graph is empty. It is the zero-cost accessor the hot
// kernels hoist once per pass: with off and adj := Adjacency() in
// locals, the inner loop
//
//	for i := off[v]; i < off[v+1]; i++ { ... adj[i] ... }
//
// compiles to two uint32 loads per row with no per-row slice header
// construction. The array aliases graph storage; do not modify.
func (g *Graph) Offsets32() []uint32 { return g.offsets }

// Adjacency returns the full CSR adjacency array (length 2m), the
// concatenated sorted neighbor lists. It aliases graph storage; do
// not modify.
func (g *Graph) Adjacency() []NodeID { return g.neighbors }

// HasEdge reports whether the edge {u, v} is present, by binary search
// over u's (sorted) adjacency list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.Neighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == v
}

// EdgeSlot returns the index of v within u's adjacency list, or -1 if
// {u,v} is not an edge. Edge slots are the per-node "pin numbers" used
// by random-route permutations in SybilGuard/SybilLimit.
func (g *Graph) EdgeSlot(u, v NodeID) int {
	adj := g.Neighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(adj) && adj[lo] == v {
		return lo
	}
	return -1
}

// MinDegree returns the smallest degree in the graph, or 0 for an
// empty graph.
func (g *Graph) MinDegree() int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < n; v++ {
		if d := g.Degree(NodeID(v)); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the largest degree in the graph, or 0 for an empty
// graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the mean degree 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(2*g.NumEdges()) / float64(n)
}

// Edges calls fn once for every undirected edge {u, v} with u < v.
// Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				if !fn(NodeID(u), v) {
					return
				}
			}
		}
	}
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.NumEdges())
}

// Validate checks the structural invariants of the CSR representation:
// sorted, deduplicated, loop-free and symmetric adjacency. It is
// intended for tests and for validating externally constructed graphs.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if n == 0 {
		if len(g.neighbors) != 0 {
			return fmt.Errorf("graph: empty offsets with %d neighbors", len(g.neighbors))
		}
		return nil
	}
	if g.offsets[0] != 0 || int64(g.offsets[n]) != int64(len(g.neighbors)) {
		return fmt.Errorf("graph: offset bounds [%d,%d] do not match %d neighbors",
			g.offsets[0], g.offsets[n], len(g.neighbors))
	}
	// All offsets must be monotone before any adjacency slicing:
	// HasEdge below indexes by the *neighbor's* offsets, which the
	// per-node loop would not have vetted yet.
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: decreasing offsets at node %d", v)
		}
	}
	for v := 0; v < n; v++ {
		adj := g.Neighbors(NodeID(v))
		for i, w := range adj {
			if int(w) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, w)
			}
			if w == NodeID(v) {
				return fmt.Errorf("graph: self-loop at node %d", v)
			}
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", v)
			}
			if !g.HasEdge(w, NodeID(v)) {
				return fmt.Errorf("graph: edge %d->%d has no reverse", v, w)
			}
		}
	}
	return nil
}
