// Package centrality computes the node-centrality measures the
// paper's related work builds on: betweenness (Quercia & Hailes'
// Sybil defense [19] and Daly & Haahr's DTN routing [2] both rank by
// it), closeness, degree, and PageRank. Betweenness uses Brandes'
// algorithm; PageRank is damped power iteration on the walk operator
// this library is all about.
package centrality

import (
	"math"
	"math/rand/v2"

	"mixtime/internal/graph"
)

// Betweenness returns the (unnormalized) shortest-path betweenness of
// every vertex by Brandes' algorithm: one BFS + dependency
// accumulation per source, O(n·m) total. Each unordered pair
// contributes once.
func Betweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if n == 0 {
		return bc
	}
	sigma := make([]float64, n) // shortest-path counts
	dist := make([]int32, n)
	delta := make([]float64, n)
	order := make([]graph.NodeID, 0, n)
	preds := make([][]graph.NodeID, n)

	for s := 0; s < n; s++ {
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		order = order[:0]
		sigma[s] = 1
		dist[s] = 0
		order = append(order, graph.NodeID(s))
		for head := 0; head < len(order); head++ {
			v := order[head]
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					order = append(order, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		// Accumulate dependencies in reverse BFS order.
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			bc[w] += delta[w]
		}
	}
	// Each pair counted from both endpoints → halve.
	for i := range bc {
		bc[i] /= 2
	}
	return bc
}

// SampledBetweenness estimates betweenness from k random pivot
// sources (Brandes–Pich), scaled to the full-source estimate.
func SampledBetweenness(g *graph.Graph, k int, rng *rand.Rand) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if n == 0 || k <= 0 {
		return bc
	}
	if k > n {
		k = n
	}
	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	order := make([]graph.NodeID, 0, n)
	preds := make([][]graph.NodeID, n)
	for pivot := 0; pivot < k; pivot++ {
		s := rng.IntN(n)
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		order = order[:0]
		sigma[s] = 1
		dist[s] = 0
		order = append(order, graph.NodeID(s))
		for head := 0; head < len(order); head++ {
			v := order[head]
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					order = append(order, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			bc[w] += delta[w]
		}
	}
	scale := float64(n) / float64(k) / 2
	for i := range bc {
		bc[i] *= scale
	}
	return bc
}

// Closeness returns the closeness centrality of every vertex:
// (reachable−1) / Σ distances, 0 for isolated vertices. O(n·m).
func Closeness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	cc := make([]float64, n)
	for s := 0; s < n; s++ {
		var sum, reach float64
		graph.BFS(g, graph.NodeID(s), func(_ graph.NodeID, depth int) bool {
			sum += float64(depth)
			reach++
			return true
		})
		if sum > 0 {
			cc[s] = (reach - 1) / sum
		}
	}
	return cc
}

// PageRank returns the damped PageRank vector (damping d, tolerance
// tol on the L1 update, both defaulted when ≤ 0). On an undirected
// graph PageRank with d→1 approaches the stationary distribution
// deg/2m; the damping teleport is what keeps it distinct.
func PageRank(g *graph.Graph, d, tol float64, maxIter int) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	if d <= 0 || d >= 1 {
		d = 0.85
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	p := make([]float64, n)
	q := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	base := (1 - d) / float64(n)
	for iter := 0; iter < maxIter; iter++ {
		var dangling float64
		for v := 0; v < n; v++ {
			if g.Degree(graph.NodeID(v)) == 0 {
				dangling += p[v]
			}
		}
		for v := range q {
			q[v] = base + d*dangling/float64(n)
		}
		for v := 0; v < n; v++ {
			deg := g.Degree(graph.NodeID(v))
			if deg == 0 {
				continue
			}
			share := d * p[v] / float64(deg)
			for _, w := range g.Neighbors(graph.NodeID(v)) {
				q[w] += share
			}
		}
		var diff float64
		for i := range p {
			diff += math.Abs(q[i] - p[i])
		}
		p, q = q, p
		if diff < tol {
			break
		}
	}
	return p
}

// PersonalizedPageRank returns the PageRank vector with teleport
// concentrated at source — random-walk-with-restart "connectivity to
// the trusted node". Viswanath et al. showed that random-walk Sybil
// defenses reduce to ranking by exactly this kind of score; the
// defense-comparison experiment uses it as the ranking core.
func PersonalizedPageRank(g *graph.Graph, source graph.NodeID, d, tol float64, maxIter int) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	if d <= 0 || d >= 1 {
		d = 0.85
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	p := make([]float64, n)
	q := make([]float64, n)
	p[source] = 1
	for iter := 0; iter < maxIter; iter++ {
		var dangling float64
		for v := 0; v < n; v++ {
			if g.Degree(graph.NodeID(v)) == 0 {
				dangling += p[v]
			}
		}
		for v := range q {
			q[v] = 0
		}
		q[source] = (1 - d) + d*dangling
		for v := 0; v < n; v++ {
			deg := g.Degree(graph.NodeID(v))
			if deg == 0 {
				continue
			}
			share := d * p[v] / float64(deg)
			for _, w := range g.Neighbors(graph.NodeID(v)) {
				q[w] += share
			}
		}
		var diff float64
		for i := range p {
			diff += math.Abs(q[i] - p[i])
		}
		p, q = q, p
		if diff < tol {
			break
		}
	}
	return p
}

// Top returns the indices of the k largest entries of scores,
// descending. k is clamped to [0, len(scores)].
func Top(scores []float64, k int) []graph.NodeID {
	type pair struct {
		v graph.NodeID
		s float64
	}
	all := make([]pair, len(scores))
	for i, s := range scores {
		all[i] = pair{graph.NodeID(i), s}
	}
	// Partial selection sort is fine for the small k this is used
	// with.
	k = max(0, min(k, len(all)))
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].s > all[best].s {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].v
	}
	return out
}
