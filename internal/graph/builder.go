package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is an undirected edge between two vertices.
type Edge struct{ U, V NodeID }

// Builder accumulates edges and produces an immutable Graph.
// Directed duplicates, parallel edges and self-loops are eliminated at
// Build time, so callers may feed raw directed edge lists (as found in
// the SNAP datasets) and obtain the symmetrized simple graph the paper
// measures. The zero value is ready to use.
type Builder struct {
	edges []Edge
	maxID NodeID
	any   bool
}

// NewBuilder returns a Builder with capacity for sizeHint edges.
func NewBuilder(sizeHint int) *Builder {
	return &Builder{edges: make([]Edge, 0, sizeHint)}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
func (b *Builder) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v > b.maxID {
		b.maxID = v
	}
	b.any = true
	b.edges = append(b.edges, Edge{u, v})
}

// AddNode ensures the builder's node range covers v, so isolated
// vertices survive Build.
func (b *Builder) AddNode(v NodeID) {
	if v > b.maxID {
		b.maxID = v
	}
	b.any = true
}

// NumPendingEdges returns the number of (possibly duplicated) edges
// recorded so far.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// NumNodes returns the node count Build would produce now: one past
// the largest recorded node, or 0 before any.
func (b *Builder) NumNodes() int {
	if !b.any {
		return 0
	}
	return int(b.maxID) + 1
}

// Build produces the graph from both directions of every recorded
// edge (see FillRows). The Builder keeps its state and may be
// extended and built again.
//
// Build panics when the recorded edges, duplicates included, number
// 2³¹ or more: the fill indexes them with the graph's uint32 CSR
// offsets. Loaders of untrusted input (graphio) bound their edge
// count before they reach it.
func (b *Builder) Build() *Graph {
	if !b.any {
		return &Graph{}
	}
	offsets, neighbors := FillRows(b.NumNodes(), b.edges, true)
	return &Graph{offsets: offsets, neighbors: neighbors}
}

// FillRows returns the CSR of n rows in which row e.U holds e.V for
// every e in pairs and, when symmetric is set, row e.V holds e.U too;
// every row comes out sorted and deduplicated. It runs without a
// global sort: it counts each row's entries, fills them into one
// array, then sorts, dedups and compacts each row in place, so the
// offsets of the count become those of the CSR. That is O(n + m)
// plus O(d log d) for each row of degree d that arrives out of
// order; pairs recorded in (U, V) order leave every row sorted. The
// result depends only on n and the set of pairs, not on their order.
// Both Builder.Build and the directed graph's builder use it.
//
// FillRows panics when the fill, duplicates included, reaches 2³²
// entries: the offsets are uint32.
func FillRows(n int, pairs []Edge, symmetric bool) (offsets []uint32, adj []NodeID) {
	fill := int64(len(pairs))
	if symmetric {
		fill *= 2
	}
	if fill > math.MaxUint32 {
		panic(fmt.Sprintf("graph: %d pairs fill %d CSR entries, past the uint32 offset limit %d",
			len(pairs), fill, uint32(math.MaxUint32)))
	}
	offsets = make([]uint32, n+1)
	for _, e := range pairs {
		offsets[e.U+1]++
		if symmetric {
			offsets[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	// The fill advances offsets[v] from the start of row v to its
	// end, which is the start of row v+1.
	adj = make([]NodeID, fill)
	for _, e := range pairs {
		adj[offsets[e.U]] = e.V
		offsets[e.U]++
		if symmetric {
			adj[offsets[e.V]] = e.U
			offsets[e.V]++
		}
	}
	// Compact row v from [lo, offsets[v]) down to [w, ...): w never
	// passes lo, so no row is overwritten before it is read.
	var lo, w uint32
	for v := 0; v < n; v++ {
		row := adj[lo:offsets[v]]
		lo = offsets[v]
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
		offsets[v] = w
		for i, x := range row {
			if i == 0 || x != adj[w-1] {
				adj[w] = x
				w++
			}
		}
	}
	offsets[n] = w
	if int(w) < len(adj) {
		adj = slices.Clone(adj[:w])
	}
	return offsets, adj
}

// FromEdges builds a graph with n nodes from an edge list. If n is 0
// the node count is inferred as max endpoint + 1.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 || n > MaxNodes {
		return nil, fmt.Errorf("graph: invalid node count %d", n)
	}
	b := NewBuilder(len(edges))
	for _, e := range edges {
		if n > 0 && (int(e.U) >= n || int(e.V) >= n) {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range for n=%d", e.U, e.V, n)
		}
		b.AddEdge(e.U, e.V)
	}
	if n > 0 {
		b.AddNode(NodeID(n - 1))
	}
	return b.Build(), nil
}
