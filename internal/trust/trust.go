// Package trust implements the paper's future-work direction
// (Mohaisen, Hopper, Kim: "Keep your friends close — incorporating
// trust into social network-based Sybil defenses"): random walks
// whose transition probabilities are modulated to account for the
// trust an edge carries, and the measurement of what that costs in
// mixing time.
//
// Two mechanisms are provided, composable:
//
//   - edge weighting: the walk moves across {u,v} with probability
//     proportional to a symmetric weight w(u,v); weights derived from
//     structural embeddedness (Jaccard similarity of neighborhoods)
//     concentrate the walk inside communities, modeling walks that
//     prefer strong ties;
//
//   - hesitation (originator-style laziness): each step stays put
//     with probability α, modeling per-hop reluctance to extend trust.
//
// Both leave the stationary distribution of the weighted chain at
// π_v ∝ strength(v), and both slow mixing — quantifying the paper's
// observation that stricter trust models are exactly the slow-mixing
// ones.
package trust

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/spectral"
)

// Weights are symmetric positive edge weights, CSR-aligned with a
// graph: one entry per directed adjacency slot in Neighbors order.
type Weights []float64

// slotCount returns the total adjacency slots of g (= 2m).
func slotCount(g *graph.Graph) int {
	var s int64
	for v := 0; v < g.NumNodes(); v++ {
		s += int64(g.Degree(graph.NodeID(v)))
	}
	return int(s)
}

// UniformWeights assigns weight 1 to every edge — the plain random
// walk, as a baseline.
func UniformWeights(g *graph.Graph) Weights {
	w := make(Weights, slotCount(g))
	for i := range w {
		w[i] = 1
	}
	return w
}

// JaccardWeights weights each edge by the Jaccard similarity of its
// endpoints' neighborhoods, smoothed to stay positive:
// w(u,v) = (|N(u)∩N(v)| + 1) / (|N(u)∪N(v)| + 1). Edges inside dense
// communities (high embeddedness — strong ties) get high weight;
// bridges get low weight.
func JaccardWeights(g *graph.Graph) Weights {
	w := make(Weights, slotCount(g))
	idx := 0
	for v := 0; v < g.NumNodes(); v++ {
		adjV := g.Neighbors(graph.NodeID(v))
		for _, u := range adjV {
			common := intersectionSize(adjV, g.Neighbors(u))
			union := len(adjV) + g.Degree(u) - common
			w[idx] = float64(common+1) / float64(union+1)
			idx++
		}
	}
	return w
}

// intersectionSize counts common elements of two sorted lists.
func intersectionSize(a, b []graph.NodeID) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// InverseDegreeWeights weights each edge by 1/√(deg(u)·deg(v)),
// penalizing promiscuous endpoints — hubs are the least trustworthy
// attachment points for a Sybil region.
func InverseDegreeWeights(g *graph.Graph) Weights {
	w := make(Weights, slotCount(g))
	idx := 0
	for v := 0; v < g.NumNodes(); v++ {
		dv := float64(g.Degree(graph.NodeID(v)))
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			w[idx] = 1 / math.Sqrt(dv*float64(g.Degree(u)))
			idx++
		}
	}
	return w
}

// Chain is a trust-modulated random walk: weighted transitions plus
// hesitation probability α ∈ [0, 1).
type Chain struct {
	g           *graph.Graph
	weights     Weights
	invStrength []float64
	pi          []float64
	alpha       float64
}

// NewChain builds the chain. weights must be CSR-aligned, symmetric
// and positive; alpha is the per-step hesitation (self-loop)
// probability.
func NewChain(g *graph.Graph, weights Weights, alpha float64) (*Chain, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("trust: empty graph")
	}
	if len(weights) != slotCount(g) {
		return nil, fmt.Errorf("trust: %d weights for %d adjacency slots", len(weights), slotCount(g))
	}
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("trust: hesitation α=%v outside [0,1)", alpha)
	}
	c := &Chain{g: g, weights: weights, alpha: alpha,
		invStrength: make([]float64, n), pi: make([]float64, n)}
	idx := 0
	var total float64
	for v := 0; v < n; v++ {
		var s float64
		for range g.Neighbors(graph.NodeID(v)) {
			w := weights[idx]
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, errors.New("trust: weights must be positive and finite")
			}
			s += w
			idx++
		}
		if s == 0 {
			return nil, errors.New("trust: isolated vertex")
		}
		c.invStrength[v] = 1 / s
		c.pi[v] = s
		total += s
	}
	for v := range c.pi {
		c.pi[v] /= total
	}
	return c, nil
}

// Alpha returns the hesitation probability.
func (c *Chain) Alpha() float64 { return c.alpha }

// Stationary returns π (π_v ∝ strength(v); hesitation does not change
// it). The slice is shared.
func (c *Chain) Stationary() []float64 { return c.pi }

// Step computes dst = p·P_trust.
func (c *Chain) Step(dst, p []float64) {
	n := c.g.NumNodes()
	// outflow[u] = (1−α)·p[u]/strength(u), scattered along weights.
	for v := range dst {
		dst[v] = c.alpha * p[v]
	}
	idx := 0
	for u := 0; u < n; u++ {
		out := (1 - c.alpha) * p[u] * c.invStrength[u]
		for _, v := range c.g.Neighbors(graph.NodeID(u)) {
			dst[v] += out * c.weights[idx]
			idx++
		}
	}
}

// TraceFrom propagates a point mass at src and records the TV
// distance to π after each of maxT steps.
func (c *Chain) TraceFrom(src graph.NodeID, maxT int) *markov.Trace {
	n := c.g.NumNodes()
	p := make([]float64, n)
	q := make([]float64, n)
	p[src] = 1
	tv := make([]float64, maxT)
	for t := 0; t < maxT; t++ {
		c.Step(q, p)
		p, q = q, p
		tv[t] = markov.TVDistance(p, c.pi)
	}
	return &markov.Trace{Source: src, TV: tv}
}

// SLEM estimates the chain's second largest eigenvalue modulus. The
// weighted walk's eigenvalues are computed spectrally on
// S = D_w^{-1/2} W D_w^{-1/2} and then hesitation is applied as the
// affine map λ ↦ α + (1−α)λ.
func (c *Chain) SLEM(opt spectral.Options) (*spectral.Estimate, error) {
	return c.SLEMContext(context.Background(), opt)
}

// SLEMContext is SLEM with cancellation, threaded through the
// underlying Lanczos/power iterations.
func (c *Chain) SLEMContext(ctx context.Context, opt spectral.Options) (*spectral.Estimate, error) {
	op, err := spectral.NewWeightedOperator(c.g, c.weights)
	if err != nil {
		return nil, err
	}
	est, err := spectral.Solve(ctx, op, opt)
	if err != nil {
		return nil, err
	}
	l2 := c.alpha + (1-c.alpha)*est.Lambda2
	ln := c.alpha + (1-c.alpha)*est.LambdaN
	return &spectral.Estimate{
		Mu:         math.Max(math.Abs(l2), math.Abs(ln)),
		Lambda2:    l2,
		LambdaN:    ln,
		Iterations: est.Iterations,
		Converged:  est.Converged,
	}, nil
}
