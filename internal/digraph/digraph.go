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
	"slices"

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

// Build produces the DiGraph without a global sort, as
// graph.Builder.Build does: it fills every arc into its source's row,
// sorts (when out of order), dedups and compacts each row in place,
// then transposes the out-lists into the in-lists, which come out
// sorted by From because the sources are visited in order.
func (b *Builder) Build() *DiGraph {
	if !b.any {
		return &DiGraph{}
	}
	n := int(b.maxID) + 1
	outOff := make([]int64, n+1)
	for _, a := range b.arcs {
		outOff[a.From+1]++
	}
	for v := 0; v < n; v++ {
		outOff[v+1] += outOff[v]
	}
	// The fill advances outOff[v] from the start of row v to its end,
	// which is the start of row v+1.
	outAdj := make([]NodeID, len(b.arcs))
	for _, a := range b.arcs {
		outAdj[outOff[a.From]] = a.To
		outOff[a.From]++
	}
	var lo, w int64
	for v := 0; v < n; v++ {
		row := outAdj[lo:outOff[v]]
		lo = outOff[v]
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
		outOff[v] = w
		for i, x := range row {
			if i == 0 || x != outAdj[w-1] {
				outAdj[w] = x
				w++
			}
		}
	}
	outOff[n] = w
	if w < int64(len(outAdj)) {
		outAdj = slices.Clone(outAdj[:w])
	}

	inOff := make([]int64, n+1)
	for _, x := range outAdj {
		inOff[x+1]++
	}
	for v := 0; v < n; v++ {
		inOff[v+1] += inOff[v]
	}
	inAdj := make([]NodeID, w)
	for v := 0; v < n; v++ {
		for _, x := range outAdj[outOff[v]:outOff[v+1]] {
			inAdj[inOff[x]] = NodeID(v)
			inOff[x]++
		}
	}
	copy(inOff[1:], inOff[:n])
	inOff[0] = 0
	return &DiGraph{outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}
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
