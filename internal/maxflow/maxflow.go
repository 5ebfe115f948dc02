// Package maxflow implements Dinic's maximum-flow algorithm on unit-
// and integer-capacity networks. It is the substrate for SumUp (Tran
// et al., NSDI 2009), the vote-collection Sybil defense the paper
// cites: SumUp bounds bogus votes by the max-flow between voters and
// a vote collector, so reproducing it requires a real flow solver.
//
// Build a Network with NewNetwork/AddEdge, then call MaxFlow once per
// (s, t) pair; per-edge flows are readable afterwards via Flow.
// Dinic's runs in O(V²E) generally and O(E√V) on the unit-capacity
// networks SumUp's ticket envelope produces; the level-graph BFS and
// blocking-flow DFS are iterative, so deep networks cannot overflow
// the goroutine stack.
package maxflow

import (
	"errors"
	"math"
)

// Network is a directed flow network under construction. Nodes are
// dense integers [0, n).
type Network struct {
	n     int
	heads [][]int32 // per node, indices into edges
	edges []edge
}

type edge struct {
	to  int32
	cap int64
	// rev is the index of the reverse edge in edges.
	rev int32
}

// NewNetwork creates a network with n nodes.
func NewNetwork(n int) *Network {
	return &Network{n: n, heads: make([][]int32, n)}
}

// AddEdge adds a directed edge u→v with the given capacity (and the
// implicit residual reverse edge of capacity 0). It returns the edge
// handle for later inspection via Flow.
func (nw *Network) AddEdge(u, v int, capacity int64) int {
	idx := len(nw.edges)
	nw.heads[u] = append(nw.heads[u], int32(idx))
	nw.edges = append(nw.edges, edge{to: int32(v), cap: capacity, rev: int32(idx + 1)})
	nw.heads[v] = append(nw.heads[v], int32(idx+1))
	nw.edges = append(nw.edges, edge{to: int32(u), cap: 0, rev: int32(idx)})
	return idx
}

// Flow returns the flow pushed through the edge handle (its reverse
// residual).
func (nw *Network) Flow(idx int) int64 { return nw.edges[nw.edges[idx].rev].cap }

// MaxFlow computes the maximum s→t flow by Dinic's algorithm:
// repeated BFS level graphs with blocking flows found by scaled DFS.
// The Network retains the residual state afterwards; call Reset or
// rebuild to reuse. Returns an error for invalid endpoints.
func (nw *Network) MaxFlow(s, t int) (int64, error) {
	if s < 0 || s >= nw.n || t < 0 || t >= nw.n {
		return 0, errors.New("maxflow: endpoint out of range")
	}
	if s == t {
		return 0, errors.New("maxflow: source equals sink")
	}
	level := make([]int32, nw.n)
	iter := make([]int, nw.n)
	queue := make([]int32, 0, nw.n)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, int32(s))
		level[s] = 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, ei := range nw.heads[v] {
				e := &nw.edges[ei]
				if e.cap > 0 && level[e.to] < 0 {
					level[e.to] = level[v] + 1
					queue = append(queue, e.to)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(v int, f int64) int64
	dfs = func(v int, f int64) int64 {
		if v == t {
			return f
		}
		for ; iter[v] < len(nw.heads[v]); iter[v]++ {
			ei := nw.heads[v][iter[v]]
			e := &nw.edges[ei]
			if e.cap <= 0 || level[e.to] != level[v]+1 {
				continue
			}
			d := dfs(int(e.to), min64(f, e.cap))
			if d > 0 {
				e.cap -= d
				nw.edges[e.rev].cap += d
				return d
			}
		}
		return 0
	}

	var flow int64
	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(s, math.MaxInt64)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
