package evolve

import (
	"math/rand/v2"

	"mixtime/internal/graph"
)

// maxDraws bounds rejection sampling per requested edge: on a graph
// dense enough that distinct absent pairs are hard to hit, the batch
// comes back short rather than spinning. Callers that need exactly k
// edges should check len(Batch.Insert).
const maxDraws = 200

// GrowRandom returns a batch inserting up to k distinct random edges
// absent from g, endpoints uniform over the node range — the
// edge-by-edge growth process of the Evolution-of-the-Mixing-Rate
// model (PAPERS.md), batched. Deterministic for a given rng state.
func GrowRandom(g *graph.Graph, k int, rng *rand.Rand) Batch {
	n := g.NumNodes()
	if n < 2 {
		return Batch{}
	}
	return sampleAbsent(g, k, rng, func() (graph.NodeID, graph.NodeID) {
		return graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
	})
}

// AttackEdges returns a batch inserting up to k distinct random
// attack edges between the honest region [0, honestN) and the sybil
// region [honestN, n) of a combined graph — the accretion process
// experiment E2 drives: each epoch the adversary buys g more links
// into the honest region.
func AttackEdges(g *graph.Graph, honestN int, k int, rng *rand.Rand) Batch {
	n := g.NumNodes()
	if honestN < 1 || honestN >= n {
		return Batch{}
	}
	return sampleAbsent(g, k, rng, func() (graph.NodeID, graph.NodeID) {
		return graph.NodeID(rng.IntN(honestN)), graph.NodeID(honestN + rng.IntN(n-honestN))
	})
}

// sampleAbsent draws candidate endpoints from draw until it has k
// distinct edges absent from g (or the draw budget runs out).
func sampleAbsent(g *graph.Graph, k int, rng *rand.Rand, draw func() (graph.NodeID, graph.NodeID)) Batch {
	seen := make(map[uint64]struct{}, k)
	edges := make([]graph.Edge, 0, k)
	for budget := k * maxDraws; len(edges) < k && budget > 0; budget-- {
		u, v := draw()
		if u == v {
			continue
		}
		key := edgeKey(u, v)
		if _, dup := seen[key]; dup {
			continue
		}
		if g.HasEdge(u, v) {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return Batch{Insert: edges}
}
