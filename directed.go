package mixtime

import (
	"context"

	"mixtime/internal/digraph"
	"mixtime/internal/spectral"
	"mixtime/internal/trust"
)

// --- Directed graphs ------------------------------------------------

// DiGraph is a simple directed graph. The SNAP crawls behind several
// Table-1 datasets are directed; the paper symmetrizes them before
// measuring (Symmetrize), and the directed walk itself can be
// measured via NewDirectedChain.
type DiGraph = digraph.DiGraph

// Arc is a directed edge.
type Arc = digraph.Arc

// DiBuilder accumulates arcs and builds a DiGraph.
type DiBuilder = digraph.Builder

// NewDiBuilder returns a directed-graph builder.
func NewDiBuilder(sizeHint int) *DiBuilder { return digraph.NewBuilder(sizeHint) }

// Symmetrize converts a digraph to the undirected graph the paper
// measures (every arc becomes an edge; reciprocal pairs merge).
func Symmetrize(g *DiGraph) *Graph { return digraph.Symmetrize(g) }

// LargestSCC extracts the largest strongly connected component, the
// directed analogue of LargestComponent.
func LargestSCC(g *DiGraph) (*DiGraph, []NodeID) { return digraph.LargestSCC(g) }

// DirectedChain is the random walk on a strongly connected digraph.
// Its stationary distribution has no closed form and is computed
// numerically at construction.
type DirectedChain = digraph.Chain

// NewDirectedChain builds the directed walk (tol bounds the L1 error
// of the computed stationary distribution; ≤ 0 defaults to 1e-12).
func NewDirectedChain(g *DiGraph, tol float64, opts ...digraph.ChainOption) (*DirectedChain, error) {
	return digraph.NewChain(g, tol, opts...)
}

// LazyDirected makes the directed chain lazy ((I+P)/2), curing
// periodicity.
func LazyDirected() digraph.ChainOption { return digraph.LazyChain() }

// --- Trust-modulated walks ------------------------------------------

// TrustWeights are symmetric positive edge weights, CSR-aligned with
// a Graph (one entry per adjacency slot in Neighbors order).
type TrustWeights = trust.Weights

// TrustChain is a trust-modulated random walk: weighted transitions
// plus per-step hesitation — the paper's future-work model for
// incorporating trust into Sybil defenses.
type TrustChain = trust.Chain

// UniformTrust weights every edge 1 (the plain walk).
func UniformTrust(g *Graph) TrustWeights { return trust.UniformWeights(g) }

// JaccardTrust weights each edge by the smoothed Jaccard similarity
// of its endpoints' neighborhoods — strong ties carry more trust.
func JaccardTrust(g *Graph) TrustWeights { return trust.JaccardWeights(g) }

// InverseDegreeTrust penalizes high-degree endpoints.
func InverseDegreeTrust(g *Graph) TrustWeights { return trust.InverseDegreeWeights(g) }

// NewTrustChain builds a trust-modulated chain with the given weights
// and hesitation probability alpha ∈ [0, 1).
func NewTrustChain(g *Graph, w TrustWeights, alpha float64) (*TrustChain, error) {
	return trust.NewChain(g, w, alpha)
}

// WeightedSLEM estimates µ for a weighted walk directly from a graph
// and CSR-aligned weights.
func WeightedSLEM(g *Graph, w TrustWeights, opt SpectralOptions) (*SpectralEstimate, error) {
	op, err := spectral.NewWeightedOperator(g, w)
	if err != nil {
		return nil, err
	}
	return spectral.Solve(context.TODO(), op, opt)
}
