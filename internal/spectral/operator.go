// Package spectral estimates the second largest eigenvalue modulus
// (SLEM, µ) of the random-walk transition matrix P = D⁻¹A and derives
// the mixing-time bounds of Sinclair (Theorem 2 of the paper):
//
//	µ/(2(1−µ))·ln(1/2ε)  ≤  T(ε)  ≤  (ln n + ln 1/ε)/(1−µ).
//
// P is not symmetric, but it is similar to S = D^{-1/2} A D^{-1/2},
// which is. All spectral computation happens on S, whose top
// eigenpair is known in closed form (λ₁ = 1, v₁[i] = √(deg(i)/2m)),
// so λ₂ and λ_n are reachable by deflated power iteration or by
// Lanczos — both hand-rolled here on the sparse CSR graph, since the
// Go ecosystem offers no sparse symmetric eigensolver and the dense
// route is hopeless at social-graph scale.
package spectral

import (
	"errors"
	"math"
	"runtime"

	"mixtime/internal/graph"
	"mixtime/internal/linalg"
	"mixtime/internal/telemetry"
)

// minParallelAdj is the adjacency length (2m) below which ApplyParallel
// falls back to the sequential kernel when asked for automatic
// parallelism: under it a matvec costs a few tens of microseconds and
// goroutine fan-out overhead dominates. An explicit workers > 1
// always shards.
const minParallelAdj = 1 << 15

// Operator is the symmetrized walk operator S = D^{-1/2} A D^{-1/2}
// of a graph — or, when weights is set, S = D_w^{-1/2} W D_w^{-1/2}
// for a weighted graph — applied matrix-free against the CSR
// adjacency. Immutable and safe for concurrent use.
type Operator struct {
	g          *graph.Graph
	invSqrtDeg []float64 // 1/√strength(v) (strength = degree unweighted)
	v1         []float64 // unit top eigenvector √(strength/total)
	weights    []float64 // CSR-aligned edge weights; nil = unweighted
	plan       *graph.ShardPlan
	adjLen     int64 // 2m, the CSR entries one matvec scans
	col        *telemetry.Collector
}

// NewOperator builds the operator. The graph must be non-empty with
// no isolated vertices.
func NewOperator(g *graph.Graph) (*Operator, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("spectral: empty graph")
	}
	op := &Operator{
		g:          g,
		invSqrtDeg: make([]float64, n),
		v1:         make([]float64, n),
	}
	twoM := float64(2 * g.NumEdges())
	if twoM == 0 {
		return nil, errors.New("spectral: graph has no edges")
	}
	for v := 0; v < n; v++ {
		d := float64(g.Degree(graph.NodeID(v)))
		if d == 0 {
			return nil, errors.New("spectral: graph has an isolated vertex")
		}
		op.invSqrtDeg[v] = 1 / math.Sqrt(d)
		op.v1[v] = math.Sqrt(d / twoM)
	}
	op.plan = newOperatorPlan(g)
	op.adjLen = 2 * g.NumEdges()
	return op, nil
}

// SetCollector attaches a telemetry collector: every matvec then
// counts into col at call granularity (one atomic add per CSR pass),
// and the operator's shard-plan imbalance is recorded as a gauge.
// Call before the operator is shared across goroutines; a nil col
// (the default) keeps Apply on the uninstrumented fast path. The
// solver entry points do this automatically from
// Options.Collector.
func (op *Operator) SetCollector(col *telemetry.Collector) {
	op.col = col
	if col != nil {
		st := op.plan.Stats(op.g)
		col.ObserveMax(telemetry.ShardImbalanceMilli, int64(st.Imbalance*1000))
		col.ObserveMax(telemetry.MaxGraphAdjacency, op.adjLen)
	}
}

// newOperatorPlan precomputes the edge-balanced shard plan the
// row-sharded ApplyParallel kernel claims ranges from. Oversubscribing
// the core count keeps workers busy when shard costs drift apart.
func newOperatorPlan(g *graph.Graph) *graph.ShardPlan {
	return graph.NewShardPlan(g, 4*runtime.GOMAXPROCS(0))
}

// Dim returns the operator dimension n.
func (op *Operator) Dim() int { return op.g.NumNodes() }

// TopEigenvector returns the unit eigenvector for λ₁ = 1. The slice
// is shared; callers must not modify it.
func (op *Operator) TopEigenvector() []float64 { return op.v1 }

// Apply computes dst = S·x. dst and x must have length Dim and must
// not alias. scratch, if at least Dim long, avoids an allocation
// (longer pooled buffers are resliced, not rejected).
func (op *Operator) Apply(dst, x, scratch []float64) {
	if op.col != nil {
		op.col.Add(telemetry.Matvecs, 1)
		op.col.Add(telemetry.EdgesScanned, op.adjLen)
	}
	n := op.Dim()
	w := scratch
	if len(w) < n {
		w = make([]float64, n)
	} else {
		w = w[:n]
	}
	for v := 0; v < n; v++ {
		w[v] = x[v] * op.invSqrtDeg[v]
	}
	op.applyRows(dst, w, 0, n)
}

// applyRows computes dst[v] for v in [lo, hi) from the pre-scaled
// w = D^{-1/2}x. Rows are independent and each row sums its neighbors
// in CSR order, so any partition of the vertex range produces bytes
// identical to a full sequential pass — the invariant ApplyParallel
// relies on. The offset and adjacency arrays are hoisted into locals,
// skipping the per-row slice construction, and rows are walked two
// at a time with one accumulator each: the two add chains overlap in
// the pipeline, while each row still adds its neighbors in CSR order.
func (op *Operator) applyRows(dst, w []float64, lo, hi int) {
	off, adj := op.g.Offsets32(), op.g.Adjacency()
	inv := op.invSqrtDeg
	v := lo
	if wt := op.weights; wt != nil {
		for ; v+1 < hi; v += 2 {
			i0, i1, end := int(off[v]), int(off[v+1]), int(off[v+2])
			a0, a1 := adj[i0:i1], adj[i1:end]
			w0, w1 := wt[i0:i1], wt[i1:end]
			c := min(len(a0), len(a1))
			var s0, s1 float64
			for j := 0; j < c; j++ {
				s0 += w0[j] * w[a0[j]]
				s1 += w1[j] * w[a1[j]]
			}
			for j := c; j < len(a0); j++ {
				s0 += w0[j] * w[a0[j]]
			}
			for j := c; j < len(a1); j++ {
				s1 += w1[j] * w[a1[j]]
			}
			dst[v], dst[v+1] = s0*inv[v], s1*inv[v+1]
		}
		for ; v < hi; v++ {
			var s float64
			for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
				s += wt[i] * w[adj[i]]
			}
			dst[v] = s * inv[v]
		}
		return
	}
	for ; v+1 < hi; v += 2 {
		i1 := int(off[v+1])
		a0, a1 := adj[off[v]:i1], adj[i1:off[v+2]]
		c := min(len(a0), len(a1))
		var s0, s1 float64
		for j := 0; j < c; j++ {
			s0 += w[a0[j]]
			s1 += w[a1[j]]
		}
		for _, u := range a0[c:] {
			s0 += w[u]
		}
		for _, u := range a1[c:] {
			s1 += w[u]
		}
		dst[v], dst[v+1] = s0*inv[v], s1*inv[v+1]
	}
	for ; v < hi; v++ {
		var s float64
		for _, u := range adj[off[v]:off[v+1]] {
			s += w[u]
		}
		dst[v] = s * inv[v]
	}
}

// ApplyParallel is Apply with the row loop sharded across the
// operator's edge-balanced plan: workers goroutines claim contiguous
// vertex ranges of near-equal adjacency length, so each pays for the
// edges it scans rather than the vertices it owns. Per-row summation
// order is unchanged, so the output is byte-identical to Apply.
//
// workers <= 0 uses GOMAXPROCS but stays sequential on graphs too
// small to amortize the fan-out; workers == 1 is Apply; an explicit
// workers > 1 always shards.
func (op *Operator) ApplyParallel(dst, x, scratch []float64, workers int) {
	n := op.Dim()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if 2*op.g.NumEdges() < minParallelAdj {
			workers = 1
		}
	}
	if workers <= 1 {
		op.Apply(dst, x, scratch)
		return
	}
	if op.col != nil {
		op.col.Add(telemetry.Matvecs, 1)
		op.col.Add(telemetry.EdgesScanned, op.adjLen)
	}
	w := scratch
	if len(w) < n {
		w = make([]float64, n)
	} else {
		w = w[:n]
	}
	op.plan.Do(workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			w[v] = x[v] * op.invSqrtDeg[v]
		}
	})
	op.plan.Do(workers, func(lo, hi int) {
		op.applyRows(dst, w, lo, hi)
	})
}

// Deflate removes the v₁ component from x in place, confining
// iteration to the orthogonal complement where λ₂ is the top
// eigenvalue.
func (op *Operator) Deflate(x []float64) {
	linalg.OrthogonalizeAgainst(x, op.v1)
}

// DenseSpectrum computes the full spectrum of P via a dense Jacobi
// eigensolve of the similar symmetric S. O(n³); the validation oracle
// for the sparse estimators. Eigenvalues are returned ascending.
func DenseSpectrum(g *graph.Graph) ([]float64, error) {
	op, err := NewOperator(g)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	s := linalg.NewSymDense(n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			s.Set(v, int(u), op.invSqrtDeg[v]*op.invSqrtDeg[u])
		}
	}
	vals, _, err := linalg.EigenSym(s, false)
	return vals, err
}

// DenseSLEM computes µ = max(|λ₂|, |λ_n|) exactly (up to Jacobi
// precision) from the dense spectrum. For tests and small graphs.
func DenseSLEM(g *graph.Graph) (float64, error) {
	vals, err := DenseSpectrum(g)
	if err != nil {
		return 0, err
	}
	n := len(vals)
	if n < 2 {
		return 0, errors.New("spectral: graph too small for SLEM")
	}
	return math.Max(math.Abs(vals[n-2]), math.Abs(vals[0])), nil
}
