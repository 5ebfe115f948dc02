// Package community implements community detection — label
// propagation and Louvain modularity optimization — together with the
// modularity measure. The paper's §2/§5 cite Viswanath et al.'s
// finding that random-walk Sybil defenses are, at their core,
// community detectors around the verifier, and that slow mixing *is*
// community structure; this package makes the comparison executable.
package community

import (
	"math/rand/v2"
	"slices"

	"mixtime/internal/graph"
)

// Labels assigns every vertex a community id in [0, k).
type Labels []int32

// NumCommunities returns the number of distinct communities.
func (l Labels) NumCommunities() int {
	seen := map[int32]bool{}
	for _, c := range l {
		seen[c] = true
	}
	return len(seen)
}

// Normalize relabels communities to the contiguous range [0, k) in
// first-appearance order and returns k.
func (l Labels) Normalize() int {
	remap := map[int32]int32{}
	for i, c := range l {
		nc, ok := remap[c]
		if !ok {
			nc = int32(len(remap))
			remap[c] = nc
		}
		l[i] = nc
	}
	return len(remap)
}

// Modularity returns Newman's modularity Q ∈ [−0.5, 1) of the
// labeling: the fraction of edges inside communities minus the
// expectation under the degree-preserving null model. Communities are
// summed in order of first appearance, so one labeling always gives
// the same bits.
func Modularity(g *graph.Graph, l Labels) float64 {
	m2 := float64(2 * g.NumEdges())
	if m2 == 0 {
		return 0
	}
	n := g.NumNodes()
	dense := slices.Clone(l[:n])
	k := dense.Normalize()
	inside := make([]float64, k) // 2×edges within community c
	degSum := make([]float64, k)
	for v := 0; v < n; v++ {
		c := dense[v]
		degSum[c] += float64(g.Degree(graph.NodeID(v)))
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if dense[w] == c {
				inside[c]++
			}
		}
	}
	var q float64
	for c, in := range inside {
		q += in/m2 - (degSum[c]/m2)*(degSum[c]/m2)
	}
	return q
}

// LabelPropagation runs asynchronous label propagation: every node
// repeatedly adopts the most frequent label among its neighbors
// (ties broken randomly), until a sweep changes nothing or maxSweeps
// elapse. Fast and parameter-free; communities are whatever the graph
// agrees on.
func LabelPropagation(g *graph.Graph, maxSweeps int, rng *rand.Rand) Labels {
	n := g.NumNodes()
	labels := make(Labels, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	if maxSweeps <= 0 {
		maxSweeps = 100
	}
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	// Labels stay in [0, n): each vertex starts with its own ID and
	// only ever copies a neighbor's label. counts is dense and zero
	// between vertices; seen lists the neighbor labels in adjacency
	// order, so ties collect in a fixed order.
	counts := make([]int, n)
	var seen, best []int32
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := false
		for _, v := range order {
			adj := g.Neighbors(v)
			if len(adj) == 0 {
				continue
			}
			seen = seen[:0]
			for _, w := range adj {
				c := labels[w]
				if counts[c] == 0 {
					seen = append(seen, c)
				}
				counts[c]++
			}
			max := 0
			best = best[:0]
			for _, c := range seen {
				k := counts[c]
				counts[c] = 0
				if k > max {
					max = k
					best = best[:0]
				}
				if k == max {
					best = append(best, c)
				}
			}
			pick := best[0]
			if len(best) > 1 {
				// Deterministic tie-break under a seeded rng: pick the
				// smallest among the tied labels unless rng moves us,
				// keeping runs reproducible.
				min := best[0]
				for _, c := range best[1:] {
					if c < min {
						min = c
					}
				}
				pick = min
				if rng.IntN(4) == 0 {
					pick = best[rng.IntN(len(best))]
				}
			}
			if pick != labels[v] {
				labels[v] = pick
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	labels.Normalize()
	return labels
}
