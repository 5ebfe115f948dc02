// Package markov implements the random walk on an undirected graph as
// a Markov chain: the transition operator P = D⁻¹A applied to exact
// probability distributions, the stationary distribution
// π_v = deg(v)/2m, total-variation and separation distances, and the
// direct (sampling) measurement of the mixing time from Definition 1
// of the paper:
//
//	T(ε) = max_i min{ t : ‖π − π⁽ⁱ⁾Pᵗ‖_tv < ε }.
package markov

import (
	"errors"
	"math"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// Chain is the random walk on a fixed graph. The zero value is not
// usable; construct with New. A Chain is immutable and safe for
// concurrent use.
type Chain struct {
	g      *graph.Graph
	invDeg []float64
	pi     []float64
	adjLen int64 // 2m, the CSR entries one full pass scans
	col    *telemetry.Collector
	lazy   bool
}

// Option configures a Chain.
type Option func(*Chain)

// Lazy makes the chain lazy: P' = (I+P)/2. A lazy chain is aperiodic
// on every connected graph, including bipartite ones where the plain
// walk never converges. The stationary distribution is unchanged.
func Lazy() Option { return func(c *Chain) { c.lazy = true } }

// WithCollector attaches a telemetry collector: every propagation
// kernel then counts its matvecs, SpMM blocks, edges scanned and
// trace completions into col at kernel-call granularity (one atomic
// add per CSR pass, never per edge), so results stay byte-identical.
// A nil col — the default — keeps the hot paths on the uninstrumented
// fast path.
func WithCollector(col *telemetry.Collector) Option {
	return func(c *Chain) { c.col = col }
}

// New constructs the random-walk chain for g. It fails if the graph
// is empty or has isolated vertices (the walk is undefined there); the
// paper sidesteps both by measuring the largest connected component.
func New(g *graph.Graph, opts ...Option) (*Chain, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("markov: empty graph")
	}
	c := &Chain{g: g}
	for _, o := range opts {
		o(c)
	}
	c.invDeg = make([]float64, n)
	c.pi = make([]float64, n)
	twoM := float64(2 * g.NumEdges())
	if twoM == 0 {
		return nil, errors.New("markov: graph has no edges")
	}
	for v := 0; v < n; v++ {
		d := g.Degree(graph.NodeID(v))
		if d == 0 {
			return nil, errors.New("markov: graph has an isolated vertex")
		}
		c.invDeg[v] = 1 / float64(d)
		c.pi[v] = float64(d) / twoM
	}
	c.adjLen = 2 * g.NumEdges()
	if c.col != nil {
		c.col.ObserveMax(telemetry.MaxGraphAdjacency, c.adjLen)
	}
	return c, nil
}

// Collector returns the attached telemetry collector (nil when the
// chain is uninstrumented).
func (c *Chain) Collector() *telemetry.Collector { return c.col }

// Graph returns the underlying graph.
func (c *Chain) Graph() *graph.Graph { return c.g }

// IsLazy reports whether the chain is the lazy walk (I+P)/2.
func (c *Chain) IsLazy() bool { return c.lazy }

// NumNodes returns the number of states.
func (c *Chain) NumNodes() int { return c.g.NumNodes() }

// Stationary returns the stationary distribution π, with
// π_v = deg(v)/2m (Theorem 1). The returned slice is shared; callers
// must not modify it.
func (c *Chain) Stationary() []float64 { return c.pi }

// IsErgodic reports whether the chain converges to π from every start:
// the graph must be connected, and the walk aperiodic (non-bipartite,
// or lazy).
func (c *Chain) IsErgodic() bool {
	if !graph.IsConnected(c.g) {
		return false
	}
	return c.lazy || !graph.IsBipartite(c.g)
}

// Step computes dst = p·P for the plain walk, or p·(I+P)/2 for the
// lazy walk. dst and p must have length NumNodes and must not alias.
// scratch, if at least NumNodes long, avoids an allocation (longer
// pooled buffers are resliced, not rejected).
func (c *Chain) Step(dst, p, scratch []float64) {
	if c.col != nil {
		c.col.Add(telemetry.Matvecs, 1)
		c.col.Add(telemetry.EdgesScanned, c.adjLen)
	}
	n := c.g.NumNodes()
	w := scratch
	if len(w) < n {
		w = make([]float64, n)
	} else {
		w = w[:n]
	}
	for v := 0; v < n; v++ {
		w[v] = p[v] * c.invDeg[v]
	}
	c.stepRows(dst, p, w, 0, n)
}

// stepRows computes dst[v] for v in [lo, hi) from the pre-scaled
// w = p/deg. The offset and adjacency arrays are hoisted into locals,
// so a row costs two uint32 offset loads and no slice construction;
// per-row summation order is unchanged.
func (c *Chain) stepRows(dst, p, w []float64, lo, hi int) {
	off, adj := c.g.Offsets32(), c.g.Adjacency()
	if c.lazy {
		for v := lo; v < hi; v++ {
			var s float64
			for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
				s += w[adj[i]]
			}
			dst[v] = 0.5*p[v] + 0.5*s
		}
		return
	}
	for v := lo; v < hi; v++ {
		var s float64
		for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
			s += w[adj[i]]
		}
		dst[v] = s
	}
}

// Delta returns the point distribution concentrated at src (π⁽ⁱ⁾ in
// the paper's notation).
func (c *Chain) Delta(src graph.NodeID) []float64 {
	p := make([]float64, c.g.NumNodes())
	p[src] = 1
	return p
}

// Propagate advances p by t steps in place and returns it.
func (c *Chain) Propagate(p []float64, t int) []float64 {
	n := c.g.NumNodes()
	q := make([]float64, n)
	scratch := make([]float64, n)
	for i := 0; i < t; i++ {
		c.Step(q, p, scratch)
		p, q = q, p
	}
	return p
}

// TVDistance returns the total variation distance
// ½·Σ|p_v − q_v| ∈ [0, 1].
func TVDistance(p, q []float64) float64 {
	var s float64
	for i, v := range p {
		s += math.Abs(v - q[i])
	}
	return s / 2
}

// TVFromStationary returns ‖p − π‖_tv for this chain.
func (c *Chain) TVFromStationary(p []float64) float64 { return TVDistance(p, c.pi) }

// SeparationDistance returns max_v (1 − p_v/π_v), the one-sided
// distance used by Whānau's analysis. It upper-bounds TV distance.
func (c *Chain) SeparationDistance(p []float64) float64 {
	var m float64
	for v, pv := range p {
		if s := 1 - pv/c.pi[v]; s > m {
			m = s
		}
	}
	return m
}

// RelativePointwiseDistance returns max_v |p_v − π_v| / π_v — the
// distance Sinclair's original bounds are stated in. It dominates
// both the separation and (twice the) total variation distance.
func (c *Chain) RelativePointwiseDistance(p []float64) float64 {
	var m float64
	for v, pv := range p {
		if d := math.Abs(pv-c.pi[v]) / c.pi[v]; d > m {
			m = d
		}
	}
	return m
}

// KLDivergence returns D(p‖π) = Σ p_v·ln(p_v/π_v) in nats, the
// information-theoretic convergence measure. p_v = 0 terms contribute
// 0; π has full support on a chain, so the divergence is finite.
func (c *Chain) KLDivergence(p []float64) float64 {
	var s float64
	for v, pv := range p {
		if pv > 0 {
			s += pv * math.Log(pv/c.pi[v])
		}
	}
	if s < 0 {
		s = 0 // clamp float noise; KL is non-negative
	}
	return s
}
