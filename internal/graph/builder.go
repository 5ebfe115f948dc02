package graph

import (
	"fmt"
	"sort"
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

// Build produces the graph. The Builder keeps its state and may be
// extended and built again.
func (b *Builder) Build() *Graph {
	if !b.any {
		return &Graph{}
	}
	n := int(b.maxID) + 1

	// Sort and dedup the normalized (u<v) edge list.
	es := make([]Edge, len(b.edges))
	copy(es, b.edges)
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	uniq := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			uniq = append(uniq, e)
		}
	}
	es = uniq

	offsets := make([]int64, n+1)
	for _, e := range es {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]NodeID, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range es {
		neighbors[cursor[e.U]] = e.V
		cursor[e.U]++
		neighbors[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	// Adjacency lists come out sorted because edges were processed in
	// (U,V) order for the U side; the V side needs a per-node sort only
	// when sources interleave, so sort defensively (cheap: lists are
	// already nearly sorted).
	for v := 0; v < n; v++ {
		adj := neighbors[offsets[v]:offsets[v+1]]
		if !sorted(adj) {
			sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		}
	}
	return adopt(offsets, neighbors)
}

func sorted(a []NodeID) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
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
