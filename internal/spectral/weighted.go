package spectral

import (
	"errors"
	"math"

	"mixtime/internal/graph"
)

// NewWeightedOperator builds the symmetrized walk operator for a
// weighted graph: S = D_w^{-1/2} W D_w^{-1/2}, where W holds the
// symmetric edge weights and D_w the node strengths (weighted
// degrees). weights must be CSR-aligned with g: one entry per
// directed adjacency slot, in the order Neighbors(0), Neighbors(1),
// …, and symmetric (the slot for u→v equals the one for v→u). All
// weights must be positive.
//
// Weighted walks are the mechanism of the paper's future-work
// direction (trust-incorporating Sybil defenses): biasing transition
// probabilities by edge trust changes µ and hence the mixing time.
func NewWeightedOperator(g *graph.Graph, weights []float64) (*Operator, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("spectral: empty graph")
	}
	var slots int64
	for v := 0; v < n; v++ {
		slots += int64(g.Degree(graph.NodeID(v)))
	}
	if int64(len(weights)) != slots {
		return nil, errors.New("spectral: weights not CSR-aligned with graph")
	}
	strength := make([]float64, n)
	idx := 0
	for v := 0; v < n; v++ {
		for range g.Neighbors(graph.NodeID(v)) {
			w := weights[idx]
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, errors.New("spectral: weights must be positive and finite")
			}
			strength[v] += w
			idx++
		}
	}
	var total float64
	op := &Operator{
		g:          g,
		invSqrtDeg: make([]float64, n),
		v1:         make([]float64, n),
		weights:    weights,
	}
	for v := 0; v < n; v++ {
		if strength[v] == 0 {
			return nil, errors.New("spectral: isolated vertex")
		}
		op.invSqrtDeg[v] = 1 / math.Sqrt(strength[v])
		total += strength[v]
	}
	for v := 0; v < n; v++ {
		op.v1[v] = math.Sqrt(strength[v] / total)
	}
	op.plan = newOperatorPlan(g)
	op.adjLen = slots
	return op, nil
}

// Strengths exposes the operator's node strengths π-proportions for
// callers that need the weighted stationary distribution: π_v is
// v1[v]² .
func (op *Operator) Strengths() []float64 {
	out := make([]float64, len(op.v1))
	for i, v := range op.v1 {
		out[i] = v * v
	}
	return out
}
