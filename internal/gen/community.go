package gen

import (
	"math"
	"math/rand/v2"

	"mixtime/internal/graph"
)

// PlantedPartition samples the stochastic block model with k equal
// communities of size size: intra-community edges with probability
// pIn, inter-community with pOut. Conductance between blocks — and
// hence the mixing time — is controlled by the pOut/pIn ratio, which
// is how the slow-mixing dataset substitutes are calibrated. Runs in
// O(n + m) expected time via geometric skipping.
func PlantedPartition(k, size int, pIn, pOut float64, rng *rand.Rand) *graph.Graph {
	if k <= 0 || size <= 0 {
		return &graph.Graph{}
	}
	n := k * size
	b := graph.NewBuilder(int(pIn*float64(k)*float64(size*size)/2) + 16)
	b.AddNode(graph.NodeID(n - 1))

	// Intra-block: k independent G(size, pIn) copies, offset.
	for c := 0; c < k; c++ {
		base := graph.NodeID(c * size)
		samplePairs(size, pIn, rng, func(u, v int) {
			b.AddEdge(base+graph.NodeID(u), base+graph.NodeID(v))
		})
	}
	// Inter-block: for each ordered block pair (c1 < c2), a size×size
	// bipartite G(p) via skipping over the size² grid.
	for c1 := 0; c1 < k; c1++ {
		for c2 := c1 + 1; c2 < k; c2++ {
			base1 := graph.NodeID(c1 * size)
			base2 := graph.NodeID(c2 * size)
			sampleGrid(size, size, pOut, rng, func(u, v int) {
				b.AddEdge(base1+graph.NodeID(u), base2+graph.NodeID(v))
			})
		}
	}
	return b.Build()
}

// samplePairs visits each unordered pair {u,v} of [0,n) independently
// with probability p, in O(1 + p·n²/2) expected time.
func samplePairs(n int, p float64, rng *rand.Rand, visit func(u, v int)) {
	if p <= 0 {
		return
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				visit(u, v)
			}
		}
		return
	}
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
			visit(v, w)
		}
	}
}

// sampleGrid visits each cell of an a×b grid independently with
// probability p, in O(1 + p·a·b) expected time.
func sampleGrid(a, b int, p float64, rng *rand.Rand, visit func(i, j int)) {
	if p <= 0 {
		return
	}
	total := int64(a) * int64(b)
	if p >= 1 {
		for i := 0; i < a; i++ {
			for j := 0; j < b; j++ {
				visit(i, j)
			}
		}
		return
	}
	logq := math.Log1p(-p)
	idx := int64(-1)
	for {
		gap := int64(math.Log(1-rng.Float64())/logq) + 1
		idx += gap
		if idx >= total {
			return
		}
		visit(int(idx/int64(b)), int(idx%int64(b)))
	}
}

// RelaxedCaveman samples the relaxed caveman model: cliques of size
// cliqueSize arranged so that each edge is rewired to a random node
// elsewhere with probability rewire. Low rewire probabilities yield
// strong community structure and very slow mixing — the profile of
// the paper's co-authorship (Physics, DBLP) graphs.
func RelaxedCaveman(numCliques, cliqueSize int, rewire float64, rng *rand.Rand) *graph.Graph {
	if numCliques <= 0 || cliqueSize <= 0 {
		return &graph.Graph{}
	}
	b := graph.NewBuilder(numCliques * cliqueSize * (cliqueSize - 1) / 2)
	AddRelaxedCaveman(b, numCliques, cliqueSize, rewire, rng)
	return b.Build()
}

// AddRelaxedCaveman adds RelaxedCaveman(numCliques, cliqueSize,
// rewire, rng)'s edges to b on the numCliques·cliqueSize nodes that
// follow the ones b holds.
func AddRelaxedCaveman(b *graph.Builder, numCliques, cliqueSize int, rewire float64, rng *rand.Rand) {
	if numCliques <= 0 || cliqueSize <= 0 {
		return
	}
	n := numCliques * cliqueSize
	base := b.NumNodes()
	b.AddNode(graph.NodeID(base + n - 1))
	for c := 0; c < numCliques; c++ {
		first := c * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				u, v := first+i, first+j
				if rng.Float64() < rewire {
					v = rng.IntN(n)
					for v == u {
						v = rng.IntN(n)
					}
				}
				b.AddEdge(graph.NodeID(base+u), graph.NodeID(base+v))
			}
		}
	}
	// Tie consecutive cliques together so the graph is connected even
	// for rewire = 0 (one edge per adjacent clique pair).
	for c := 0; c+1 < numCliques; c++ {
		u := c*cliqueSize + rng.IntN(cliqueSize)
		v := (c+1)*cliqueSize + rng.IntN(cliqueSize)
		b.AddEdge(graph.NodeID(base+u), graph.NodeID(base+v))
	}
}

// CommunityBA builds k Barabási–Albert communities of size size and
// attachment kAttach, then adds bridges random inter-community edges.
// It models online social graphs with mild community structure
// (Slashdot, Epinion): locally expander-like, globally bottlenecked.
func CommunityBA(k, size, kAttach int, bridges int, rng *rand.Rand) *graph.Graph {
	if k <= 0 || size <= 0 {
		return &graph.Graph{}
	}
	n := k * size
	b := graph.NewBuilder(n*kAttach + bridges)
	for c := 0; c < k; c++ {
		addBarabasiAlbert(b, size, kAttach, rng)
	}
	for i := 0; i < bridges; i++ {
		c1 := rng.IntN(k)
		c2 := rng.IntN(k)
		for c2 == c1 {
			c2 = rng.IntN(k)
		}
		u := graph.NodeID(c1*size + rng.IntN(size))
		v := graph.NodeID(c2*size + rng.IntN(size))
		b.AddEdge(u, v)
	}
	return b.Build()
}

// AddPendants attaches pendants extra degree-1 nodes to the nodes b
// holds: each new node links to one uniformly random existing node.
// DBLP-style graphs have long low-degree fringes; these pendants are
// what the SybilGuard-style trimming of Figure 6 removes.
func AddPendants(b *graph.Builder, pendants int, rng *rand.Rand) {
	n := b.NumNodes()
	if n == 0 {
		return
	}
	for i := 0; i < pendants; i++ {
		b.AddEdge(graph.NodeID(n+i), graph.NodeID(rng.IntN(n)))
	}
}

// AddCliques attaches count cliques of size size to the nodes b
// holds, each joined to a uniformly random existing node by a single
// edge. A pendant K_s clique survives trimming up to min degree s−1
// and disappears at min degree s (its members have degree s−1, except
// the anchor link), so a mix of clique sizes reproduces the gradual
// size reduction the paper reports when trimming DBLP at levels 1→5
// (Figure 6).
func AddCliques(b *graph.Builder, count, size int, rng *rand.Rand) {
	n := b.NumNodes()
	if n == 0 || size <= 0 {
		return
	}
	next := n
	for i := 0; i < count; i++ {
		for a := 0; a < size; a++ {
			for c := a + 1; c < size; c++ {
				b.AddEdge(graph.NodeID(next+a), graph.NodeID(next+c))
			}
		}
		b.AddEdge(graph.NodeID(next), graph.NodeID(rng.IntN(n)))
		next += size
	}
}
