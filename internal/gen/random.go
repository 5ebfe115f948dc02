package gen

import (
	"math"
	"math/rand/v2"
	"slices"

	"mixtime/internal/graph"
)

// ErdosRenyi samples G(n, p) with geometric edge skipping, O(n + m)
// expected time regardless of p, so sparse million-node graphs are
// cheap.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *graph.Graph {
	if n <= 0 {
		return &graph.Graph{}
	}
	b := graph.NewBuilder(int(p * float64(n) * float64(n-1) / 2))
	b.AddNode(graph.NodeID(n - 1))
	if p <= 0 {
		return b.Build()
	}
	if p >= 1 {
		return Complete(n)
	}
	// Enumerate the n(n-1)/2 pairs lexicographically and jump between
	// successes with geometric gaps.
	logq := math.Log1p(-p)
	v, w := 1, -1
	for v < n {
		gap := int(math.Log(1-rng.Float64())/logq) + 1
		w += gap
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.AddEdge(graph.NodeID(v), graph.NodeID(w))
		}
	}
	return b.Build()
}

// ErdosRenyiM samples G(n, m): exactly m distinct edges uniformly at
// random.
func ErdosRenyiM(n int, m int64, rng *rand.Rand) *graph.Graph {
	if n <= 0 {
		return &graph.Graph{}
	}
	b := graph.NewBuilder(int(m))
	b.AddNode(graph.NodeID(n - 1))
	seen := make(map[uint64]bool, m)
	max := int64(n) * int64(n-1) / 2
	if m > max {
		m = max
	}
	for int64(len(seen)) < m {
		u := graph.NodeID(rng.IntN(n))
		v := graph.NodeID(rng.IntN(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

// WattsStrogatz samples the small-world model: a ring lattice where
// every node connects to its k nearest neighbours on each side, with
// each edge rewired to a uniform endpoint with probability beta. A
// lone node has no other endpoint to rewire to, so it is never
// rewired.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) *graph.Graph {
	if n <= 0 {
		return &graph.Graph{}
	}
	b := graph.NewBuilder(n * k)
	b.AddNode(graph.NodeID(n - 1))
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			w := (v + j) % n
			if n > 1 && beta > 0 && rng.Float64() < beta {
				w = rng.IntN(n)
				for w == v {
					w = rng.IntN(n)
				}
			}
			b.AddEdge(graph.NodeID(v), graph.NodeID(w))
		}
	}
	return b.Build()
}

// BarabasiAlbert samples the preferential-attachment model: starting
// from a small seed clique, each new node attaches k edges to existing
// nodes with probability proportional to their current degree. The
// result is connected with a power-law degree tail — the standard
// stand-in for fast-mixing online social graphs.
func BarabasiAlbert(n, k int, rng *rand.Rand) *graph.Graph {
	if n <= 0 {
		return &graph.Graph{}
	}
	b := graph.NewBuilder(n * max(k, 1))
	addBarabasiAlbert(b, n, k, rng)
	return b.Build()
}

// addBarabasiAlbert adds BarabasiAlbert(n, k, rng)'s edges to b on
// the n nodes that follow the ones b holds.
func addBarabasiAlbert(b *graph.Builder, n, k int, rng *rand.Rand) {
	if n <= 0 {
		return
	}
	if k < 1 {
		k = 1
	}
	seed := min(k+1, n)
	base := graph.NodeID(b.NumNodes())
	b.AddNode(base + graph.NodeID(n-1))
	// repeated holds every edge endpoint once per incidence, so
	// sampling a uniform element is degree-proportional sampling.
	repeated := make([]graph.NodeID, 0, 2*n*k)
	for i := graph.NodeID(0); i < graph.NodeID(seed); i++ {
		for j := i + 1; j < graph.NodeID(seed); j++ {
			b.AddEdge(base+i, base+j)
			repeated = append(repeated, i, j)
		}
	}
	targets := make([]graph.NodeID, 0, k)
	for v := graph.NodeID(seed); v < graph.NodeID(n); v++ {
		targets = targets[:0]
		for len(targets) < k && len(targets) < int(v) {
			if t := repeated[rng.IntN(len(repeated))]; !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(base+v, base+t)
			repeated = append(repeated, v, t)
		}
	}
}

// PowerLawDegrees samples n degrees from a discrete power law
// P(d) ∝ d^(−gamma) on [minDeg, maxDeg], adjusting the last entry so
// the total is even (a graphical requirement for pairing).
func PowerLawDegrees(n int, gamma float64, minDeg, maxDeg int, rng *rand.Rand) []int {
	// Inverse-CDF sampling on the continuous Pareto, then floor.
	degrees := make([]int, n)
	a := 1 - gamma
	lo := math.Pow(float64(minDeg), a)
	hi := math.Pow(float64(maxDeg)+1, a)
	sum := 0
	for i := range degrees {
		u := rng.Float64()
		d := int(math.Pow(lo+u*(hi-lo), 1/a))
		if d < minDeg {
			d = minDeg
		}
		if d > maxDeg {
			d = maxDeg
		}
		degrees[i] = d
		sum += d
	}
	if sum%2 == 1 {
		degrees[n-1]++
	}
	return degrees
}

// ConfigurationModel samples a graph with (approximately) the given
// degree sequence by uniform stub matching; self-loops and multi-edges
// are dropped, slightly deflating the realized degrees of heavy nodes.
func ConfigurationModel(degrees []int, rng *rand.Rand) *graph.Graph {
	var total int
	for _, d := range degrees {
		total += d
	}
	stubs := make([]graph.NodeID, 0, total)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.NodeID(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := graph.NewBuilder(total / 2)
	if len(degrees) > 0 {
		b.AddNode(graph.NodeID(len(degrees) - 1))
	}
	for i := 0; i+1 < len(stubs); i += 2 {
		b.AddEdge(stubs[i], stubs[i+1])
	}
	return b.Build()
}
