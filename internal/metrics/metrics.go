// Package metrics computes the structural statistics used to
// characterize social graphs: degree distributions, clustering
// coefficients, degree assortativity, and sampled path lengths. The
// paper's dataset taxonomy (trust vs interaction vs online graphs)
// is visible in exactly these numbers: trust graphs cluster heavily
// and assort positively, online graphs are hub-dominated and
// disassortative.
package metrics

import (
	"math"
	"math/rand/v2"
	"sort"

	"mixtime/internal/graph"
)

// DegreeStats summarizes a graph's degree sequence.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	Median   float64
	// P90 and P99 are upper percentiles of the degree distribution.
	P90, P99 int
	// GiniCoefficient measures degree inequality in [0, 1): 0 for a
	// regular graph, → 1 for extreme hub domination.
	Gini float64
}

// Degrees computes DegreeStats. An empty graph yields the zero value.
func Degrees(g *graph.Graph) DegreeStats {
	n := g.NumNodes()
	if n == 0 {
		return DegreeStats{}
	}
	deg := make([]int, n)
	sum := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.NodeID(v))
		sum += deg[v]
	}
	sort.Ints(deg)
	s := DegreeStats{
		Min:  deg[0],
		Max:  deg[n-1],
		Mean: float64(sum) / float64(n),
		P90:  deg[(n-1)*90/100],
		P99:  deg[(n-1)*99/100],
	}
	if n%2 == 1 {
		s.Median = float64(deg[n/2])
	} else {
		s.Median = float64(deg[n/2-1]+deg[n/2]) / 2
	}
	// Gini over the sorted sequence: Σ(2i−n+1)·d_i / (n·Σd).
	if sum > 0 {
		var acc float64
		for i, d := range deg {
			acc += float64(2*i-n+1) * float64(d)
		}
		s.Gini = acc / (float64(n) * float64(sum))
	}
	return s
}

// LocalClustering returns the local clustering coefficient of v: the
// fraction of its neighbor pairs that are themselves connected.
// Degree < 2 yields 0.
func LocalClustering(g *graph.Graph, v graph.NodeID) float64 {
	adj := g.Neighbors(v)
	d := len(adj)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(adj[i], adj[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// AverageClustering returns the mean local clustering coefficient
// (Watts–Strogatz definition) over all vertices. O(Σ d²·log d).
func AverageClustering(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var sum float64
	for v := 0; v < n; v++ {
		sum += LocalClustering(g, graph.NodeID(v))
	}
	return sum / float64(n)
}

// GlobalClustering returns the transitivity: 3×triangles / wedges.
func GlobalClustering(g *graph.Graph) float64 {
	var triangles, wedges float64
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		adj := g.Neighbors(graph.NodeID(v))
		d := len(adj)
		wedges += float64(d) * float64(d-1) / 2
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(adj[i], adj[j]) {
					triangles++ // each triangle counted once per corner
				}
			}
		}
	}
	if wedges == 0 {
		return 0
	}
	return triangles / wedges
}

// Assortativity returns the Pearson correlation of degrees across
// edges (Newman's degree assortativity) in [−1, 1]. Social trust
// graphs are typically positive, crawled online graphs negative.
func Assortativity(g *graph.Graph) float64 {
	var sx, sy, sxx, syy, sxy float64
	var cnt float64
	g.Edges(func(u, v graph.NodeID) bool {
		// Count each edge in both orientations so the measure is
		// symmetric.
		du := float64(g.Degree(u))
		dv := float64(g.Degree(v))
		for _, p := range [2][2]float64{{du, dv}, {dv, du}} {
			sx += p[0]
			sy += p[1]
			sxx += p[0] * p[0]
			syy += p[1] * p[1]
			sxy += p[0] * p[1]
			cnt++
		}
		return true
	})
	if cnt == 0 {
		return 0
	}
	num := sxy/cnt - (sx/cnt)*(sy/cnt)
	den := math.Sqrt((sxx/cnt - (sx/cnt)*(sx/cnt)) * (syy/cnt - (sy/cnt)*(sy/cnt)))
	if den == 0 {
		return 0
	}
	return num / den
}

// SampledPathLength estimates the mean shortest-path length from k
// BFS sources (exact distances, sampled sources). Disconnected pairs
// are skipped.
func SampledPathLength(g *graph.Graph, k int, rng *rand.Rand) float64 {
	n := g.NumNodes()
	if n == 0 || k <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	var sum, cnt float64
	for i := 0; i < k; i++ {
		src := graph.NodeID(rng.IntN(n))
		graph.BFS(g, src, func(v graph.NodeID, depth int) bool {
			if v != src {
				sum += float64(depth)
				cnt++
			}
			return true
		})
	}
	if cnt == 0 {
		return 0
	}
	return sum / cnt
}
