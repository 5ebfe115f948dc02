// Package digraph provides directed graphs and the preprocessing the
// paper applies to them. The SNAP datasets of Table 1 (wiki-vote,
// Slashdot, Epinion) are directed crawls; the paper — like the Sybil
// defenses it measures — symmetrizes them and takes the largest
// connected component. This package makes that pipeline explicit
// (Symmetrize, largest strongly connected component via Tarjan), and
// supports the random walk on the directed graph itself, whose mixing
// the authors' follow-up work ("On the Mixing Time of Directed Social
// Graphs") measures: unlike the undirected case the stationary
// distribution has no closed form and is computed numerically.
package digraph

import (
	"fmt"

	"mixtime/internal/graph"
)

// NodeID identifies a vertex.
type NodeID = graph.NodeID

// DiGraph is an immutable simple directed graph in CSR form (both
// out- and in-adjacency). The zero value is an empty graph.
type DiGraph struct {
	outOff []int64
	outAdj []NodeID
	inOff  []int64
	inAdj  []NodeID
}

// NumNodes returns the number of vertices.
func (g *DiGraph) NumNodes() int {
	if len(g.outOff) == 0 {
		return 0
	}
	return len(g.outOff) - 1
}

// NumArcs returns the number of directed edges.
func (g *DiGraph) NumArcs() int64 { return int64(len(g.outAdj)) }

// OutDegree returns the out-degree of v.
func (g *DiGraph) OutDegree(v NodeID) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the in-degree of v.
func (g *DiGraph) InDegree(v NodeID) int { return int(g.inOff[v+1] - g.inOff[v]) }

// Out returns v's out-neighbors, sorted. The slice aliases internal
// storage and must not be modified.
func (g *DiGraph) Out(v NodeID) []NodeID { return g.outAdj[g.outOff[v]:g.outOff[v+1]] }

// In returns v's in-neighbors, sorted.
func (g *DiGraph) In(v NodeID) []NodeID { return g.inAdj[g.inOff[v]:g.inOff[v+1]] }

// HasArc reports whether the arc u→v exists.
func (g *DiGraph) HasArc(u, v NodeID) bool {
	adj := g.Out(u)
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

// String returns a short summary.
func (g *DiGraph) String() string {
	return fmt.Sprintf("digraph{n=%d arcs=%d}", g.NumNodes(), g.NumArcs())
}

// Arc is a directed edge.
type Arc struct{ From, To NodeID }

// Builder accumulates arcs; duplicates and self-loops are dropped at
// Build.
type Builder struct {
	arcs  []Arc
	maxID NodeID
	any   bool
}

// NewBuilder returns a Builder with capacity for sizeHint arcs.
func NewBuilder(sizeHint int) *Builder { return &Builder{arcs: make([]Arc, 0, sizeHint)} }

// AddArc records the arc u→v (self-loops ignored).
func (b *Builder) AddArc(u, v NodeID) {
	if u == v {
		return
	}
	if u > b.maxID {
		b.maxID = u
	}
	if v > b.maxID {
		b.maxID = v
	}
	b.any = true
	b.arcs = append(b.arcs, Arc{u, v})
}

// AddNode extends the node range to cover v.
func (b *Builder) AddNode(v NodeID) {
	if v > b.maxID {
		b.maxID = v
	}
	b.any = true
}

// Build produces the DiGraph.
func (b *Builder) Build() *DiGraph {
	if !b.any {
		return &DiGraph{}
	}
	n := int(b.maxID) + 1
	arcs := dedupArcs(b.arcs)

	g := &DiGraph{
		outOff: make([]int64, n+1),
		inOff:  make([]int64, n+1),
		outAdj: make([]NodeID, len(arcs)),
		inAdj:  make([]NodeID, len(arcs)),
	}
	for _, a := range arcs {
		g.outOff[a.From+1]++
		g.inOff[a.To+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	outCur := make([]int64, n)
	inCur := make([]int64, n)
	copy(outCur, g.outOff[:n])
	copy(inCur, g.inOff[:n])
	for _, a := range arcs {
		g.outAdj[outCur[a.From]] = a.To
		outCur[a.From]++
		g.inAdj[inCur[a.To]] = a.From
		inCur[a.To]++
	}
	// arcs sorted by (From, To) makes out-lists sorted; in-lists come
	// out sorted by From for each To because the scan is in From order.
	return g
}

// dedupArcs sorts by (From, To) and removes duplicates.
func dedupArcs(arcs []Arc) []Arc {
	sorted := append([]Arc(nil), arcs...)
	// Simple two-key sort.
	sortArcs(sorted)
	out := sorted[:0]
	for i, a := range sorted {
		if i == 0 || a != sorted[i-1] {
			out = append(out, a)
		}
	}
	return out
}

func sortArcs(arcs []Arc) {
	// Standard sort on packed keys (uint64) is fastest and simplest.
	keys := make([]uint64, len(arcs))
	for i, a := range arcs {
		keys[i] = uint64(a.From)<<32 | uint64(a.To)
	}
	quicksortWith(keys, arcs)
}

func quicksortWith(keys []uint64, arcs []Arc) {
	if len(keys) < 2 {
		return
	}
	if len(keys) < 24 {
		for i := 1; i < len(keys); i++ {
			k, a := keys[i], arcs[i]
			j := i - 1
			for j >= 0 && keys[j] > k {
				keys[j+1], arcs[j+1] = keys[j], arcs[j]
				j--
			}
			keys[j+1], arcs[j+1] = k, a
		}
		return
	}
	// median-of-three pivot
	mid := len(keys) / 2
	last := len(keys) - 1
	if keys[mid] < keys[0] {
		keys[mid], keys[0] = keys[0], keys[mid]
		arcs[mid], arcs[0] = arcs[0], arcs[mid]
	}
	if keys[last] < keys[0] {
		keys[last], keys[0] = keys[0], keys[last]
		arcs[last], arcs[0] = arcs[0], arcs[last]
	}
	if keys[last] < keys[mid] {
		keys[last], keys[mid] = keys[mid], keys[last]
		arcs[last], arcs[mid] = arcs[mid], arcs[last]
	}
	pivot := keys[mid]
	i, j := 0, last
	for i <= j {
		for keys[i] < pivot {
			i++
		}
		for keys[j] > pivot {
			j--
		}
		if i <= j {
			keys[i], keys[j] = keys[j], keys[i]
			arcs[i], arcs[j] = arcs[j], arcs[i]
			i++
			j--
		}
	}
	quicksortWith(keys[:j+1], arcs[:j+1])
	quicksortWith(keys[i:], arcs[i:])
}

// Symmetrize converts the digraph to the undirected graph the paper
// measures: every arc becomes an undirected edge (reciprocal pairs
// merge).
func Symmetrize(g *DiGraph) *graph.Graph {
	b := graph.NewBuilder(int(g.NumArcs()))
	if n := g.NumNodes(); n > 0 {
		b.AddNode(NodeID(n - 1))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(NodeID(v)) {
			b.AddEdge(NodeID(v), w)
		}
	}
	return b.Build()
}
