package community

import (
	"math/rand/v2"

	"mixtime/internal/graph"
)

// arc is one weighted edge of Louvain's working multigraph.
type arc struct {
	to int32
	w  float64
}

// Louvain runs the Louvain method: greedy local modularity moves
// followed by community aggregation, repeated until modularity stops
// improving. Returns the flat labeling of the original vertices.
// Every loop runs in a fixed order — adjacency order, then vertex
// order — so gain ties resolve the same way on every run and one rng
// seed gives one labeling.
func Louvain(g *graph.Graph, rng *rand.Rand) Labels {
	n := g.NumNodes()
	labels := make(Labels, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	if n == 0 {
		return labels
	}

	// Working multigraph: weighted adjacency lists, with aggregated
	// internal edges as self weight. Weights are edge counts, so every
	// arc weighs at least 1.
	type wgraph struct {
		adj  [][]arc
		self []float64 // 2×internal weight
		deg  []float64 // weighted degree incl. self-loops
		m2   float64
	}
	cur := &wgraph{
		adj:  make([][]arc, n),
		self: make([]float64, n),
		deg:  make([]float64, n),
	}
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(graph.NodeID(v))
		cur.adj[v] = make([]arc, len(nbrs))
		for i, w := range nbrs {
			cur.adj[v][i] = arc{to: int32(w), w: 1}
		}
		cur.deg[v] = float64(len(nbrs))
		cur.m2 += cur.deg[v]
	}
	if cur.m2 == 0 {
		return labels
	}

	// membership maps original vertices to current-level nodes.
	membership := make([]int32, n)
	for i := range membership {
		membership[i] = int32(i)
	}

	// toComm accumulates the weight from one node to each community;
	// touched lists the communities with nonzero weight in the order
	// they were first reached. Both are reset after every use.
	toComm := make([]float64, n)
	var touched []int32
	for level := 0; level < 32; level++ {
		k := len(cur.adj)
		comm := make([]int32, k)
		commDeg := make([]float64, k) // Σ deg of community members
		for i := 0; i < k; i++ {
			comm[i] = int32(i)
			commDeg[i] = cur.deg[i]
		}

		// Phase 1: local moving.
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		improvedAny := false
		for pass := 0; pass < 64; pass++ {
			rng.Shuffle(k, func(i, j int) { order[i], order[j] = order[j], order[i] })
			moved := false
			for _, v := range order {
				cv := comm[v]
				touched = touched[:0]
				for _, a := range cur.adj[v] {
					c := comm[a.to]
					if toComm[c] == 0 {
						touched = append(touched, c)
					}
					toComm[c] += a.w
				}
				commDeg[cv] -= cur.deg[v]
				bestC := cv
				bestGain := toComm[cv] - commDeg[cv]*cur.deg[v]/cur.m2
				for _, c := range touched {
					if c == cv {
						continue
					}
					gain := toComm[c] - commDeg[c]*cur.deg[v]/cur.m2
					if gain > bestGain+1e-12 {
						bestGain = gain
						bestC = c
					}
				}
				for _, c := range touched {
					toComm[c] = 0
				}
				commDeg[bestC] += cur.deg[v]
				if bestC != cv {
					comm[v] = bestC
					moved = true
					improvedAny = true
				}
			}
			if !moved {
				break
			}
		}
		if !improvedAny {
			break
		}

		// Relabel communities densely.
		remap := map[int32]int32{}
		for _, c := range comm {
			if _, ok := remap[c]; !ok {
				remap[c] = int32(len(remap))
			}
		}
		nk := len(remap)
		for v := range comm {
			comm[v] = remap[comm[v]]
		}
		for i := range membership {
			membership[i] = comm[membership[i]]
		}
		if nk == k {
			break // no aggregation happened; fixed point
		}

		// Phase 2: aggregate, one community at a time with its members
		// in vertex order.
		members := make([][]int32, nk)
		for v, c := range comm {
			members[c] = append(members[c], int32(v))
		}
		next := &wgraph{
			adj:  make([][]arc, nk),
			self: make([]float64, nk),
			deg:  make([]float64, nk),
			m2:   cur.m2,
		}
		for c, vs := range members {
			touched = touched[:0]
			for _, v := range vs {
				next.self[c] += cur.self[v]
				next.deg[c] += cur.deg[v]
				for _, a := range cur.adj[v] {
					cu := comm[a.to]
					if int(cu) == c {
						next.self[c] += a.w // each internal edge seen twice
						continue
					}
					if toComm[cu] == 0 {
						touched = append(touched, cu)
					}
					toComm[cu] += a.w
				}
			}
			next.adj[c] = make([]arc, len(touched))
			for i, cu := range touched {
				next.adj[c][i] = arc{to: cu, w: toComm[cu]}
				toComm[cu] = 0
			}
		}
		cur = next
	}

	copy(labels, membership)
	labels.Normalize()
	return labels
}
