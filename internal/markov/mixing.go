package markov

import (
	"context"
	"fmt"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// Trace records, for one source vertex, the total-variation distance
// to the stationary distribution after every walk length 1..len(TV).
// TV[t-1] is the distance after t steps. One propagation pass serves
// every ε and every probe walk length, which is how a single
// brute-force sweep feeds Figures 1–7 of the paper.
type Trace struct {
	Source graph.NodeID
	TV     []float64
}

// DistanceAt returns ‖π⁽ˢ⁾Pᵗ − π‖_tv for 1 <= t <= len(TV); t beyond
// the trace returns the last recorded value, t <= 0 returns 1 (the
// distance of a point mass in the worst case is ~1).
func (tr *Trace) DistanceAt(t int) float64 {
	if len(tr.TV) == 0 || t <= 0 {
		return 1
	}
	if t > len(tr.TV) {
		t = len(tr.TV)
	}
	return tr.TV[t-1]
}

// MixingTime returns the smallest walk length t with TV[t] < eps, or
// (0, false) if the trace never gets that close.
func (tr *Trace) MixingTime(eps float64) (int, bool) {
	for t, d := range tr.TV {
		if d < eps {
			return t + 1, true
		}
	}
	return 0, false
}

// TraceFrom propagates the point distribution at src for maxT steps
// and records the TV distance after every step.
func (c *Chain) TraceFrom(src graph.NodeID, maxT int) *Trace {
	tr, _ := c.TraceFromContext(context.Background(), src, maxT)
	return tr
}

// TraceFromContext is TraceFrom with cancellation: the propagation
// loop checks ctx every step (each step is O(m), so the check is
// free) and returns the wrapped ctx.Err() when cancelled.
func (c *Chain) TraceFromContext(ctx context.Context, src graph.NodeID, maxT int) (*Trace, error) {
	n := c.g.NumNodes()
	p := c.Delta(src)
	q := make([]float64, n)
	scratch := make([]float64, n)
	tv := make([]float64, maxT)
	for t := 0; t < maxT; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("markov: trace from %d cancelled at step %d: %w", src, t, err)
		}
		c.Step(q, p, scratch)
		p, q = q, p
		tv[t] = TVDistance(p, c.pi)
	}
	if c.col != nil {
		c.col.Add(telemetry.SourceSteps, int64(maxT))
		c.col.Add(telemetry.TracesCompleted, 1)
	}
	return &Trace{Source: src, TV: tv}, nil
}

// TraceSample runs TraceFrom for each of the given sources (the
// paper's 1000-source sampling for large graphs).
func (c *Chain) TraceSample(sources []graph.NodeID, maxT int) []*Trace {
	traces := make([]*Trace, len(sources))
	for i, s := range sources {
		traces[i] = c.TraceFrom(s, maxT)
	}
	return traces
}

// MixingTime implements Definition 1 exactly over the given traces:
// the maximum over sources of the minimal walk length reaching TV
// distance < eps. ok is false if any source fails to reach eps within
// its trace, in which case t is a lower bound (the trace length).
func MixingTime(traces []*Trace, eps float64) (t int, ok bool) {
	ok = true
	for _, tr := range traces {
		ti, reached := tr.MixingTime(eps)
		if !reached {
			ok = false
			ti = len(tr.TV)
		}
		if ti > t {
			t = ti
		}
	}
	return t, ok
}

// AverageMixingTime returns the mean over sources of the minimal walk
// length reaching eps; sources that never reach eps count as the trace
// length (so the value is a lower bound on the true average). The
// paper's §5 argues Sybil-defense analyses should use this average
// case rather than the worst case.
func AverageMixingTime(traces []*Trace, eps float64) float64 {
	if len(traces) == 0 {
		return 0
	}
	var sum float64
	for _, tr := range traces {
		ti, reached := tr.MixingTime(eps)
		if !reached {
			ti = len(tr.TV)
		}
		sum += float64(ti)
	}
	return sum / float64(len(traces))
}

// DistancesAt returns, for each trace, the TV distance after walk
// length w — the per-source samples behind the CDFs of Figures 3–4.
func DistancesAt(traces []*Trace, w int) []float64 {
	out := make([]float64, len(traces))
	for i, tr := range traces {
		out[i] = tr.DistanceAt(w)
	}
	return out
}
