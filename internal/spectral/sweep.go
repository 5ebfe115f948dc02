package spectral

import (
	"context"
	"math"
	"sort"

	"mixtime/internal/graph"
)

// Cut describes a vertex bipartition (S, V∖S) by the membership of S
// and its conductance Φ(S) = cut(S) / min(vol(S), vol(V∖S)).
type Cut struct {
	// InS marks the members of the smaller-volume side.
	InS []bool
	// Size is the number of vertices in S.
	Size int
	// CrossEdges is the number of edges leaving S.
	CrossEdges int64
	// Conductance is Φ(S).
	Conductance float64
}

// ConductanceOf computes the conductance of the vertex set marked by
// inS. Returns +Inf for the empty or full set.
func ConductanceOf(g *graph.Graph, inS []bool) float64 {
	var volS, volAll, cross int64
	for v := 0; v < g.NumNodes(); v++ {
		d := int64(g.Degree(graph.NodeID(v)))
		volAll += d
		if !inS[v] {
			continue
		}
		volS += d
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if !inS[u] {
				cross++
			}
		}
	}
	minVol := volS
	if volAll-volS < minVol {
		minVol = volAll - volS
	}
	if minVol == 0 {
		return math.Inf(1)
	}
	return float64(cross) / float64(minVol)
}

// SweepCut performs the classical spectral sweep: order vertices by
// score[v]/√deg(v) (turning the S-basis eigenvector estimate back
// into the walk basis), then scan prefixes S_k and return the prefix
// with minimum conductance. With the λ₂ eigenvector as score, Cheeger
// guarantees Φ(S) ≤ √(2(1−λ₂)); the cut it finds exposes the
// community structure responsible for slow mixing.
func SweepCut(g *graph.Graph, score []float64) *Cut {
	n := g.NumNodes()
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	key := make([]float64, n)
	for v := 0; v < n; v++ {
		key[v] = score[v] / math.Sqrt(float64(g.Degree(graph.NodeID(v))))
	}
	sort.Slice(order, func(i, j int) bool { return key[order[i]] > key[order[j]] })

	inS := make([]bool, n)
	volAll := 2 * g.NumEdges()
	var volS, cross int64
	best := &Cut{Conductance: math.Inf(1)}
	bestK := -1
	for k := 0; k < n-1; k++ {
		v := order[k]
		d := int64(g.Degree(v))
		// Adding v flips each edge to S from crossing to internal and
		// each edge to V∖S to crossing.
		toS := int64(0)
		for _, u := range g.Neighbors(v) {
			if inS[u] {
				toS++
			}
		}
		cross += d - 2*toS
		volS += d
		inS[v] = true

		minVol := volS
		if volAll-volS < minVol {
			minVol = volAll - volS
		}
		if minVol == 0 {
			continue
		}
		phi := float64(cross) / float64(minVol)
		if phi < best.Conductance {
			best.Conductance = phi
			best.CrossEdges = cross
			best.Size = k + 1
			bestK = k
		}
	}
	best.InS = make([]bool, n)
	for k := 0; k <= bestK; k++ {
		best.InS[order[k]] = true
	}
	return best
}

// SweepConductanceContext estimates the λ₂ eigenvector by power
// iteration and sweeps it. It returns the cut and the SLEM estimate
// used; the iteration aborts with the wrapped ctx.Err() once ctx is
// done.
func SweepConductanceContext(ctx context.Context, g *graph.Graph, opt Options) (*Cut, *Estimate, error) {
	est, err := SLEMPowerContext(ctx, g, opt)
	if err != nil {
		return nil, nil, err
	}
	return SweepCut(g, est.Vector2), est, nil
}
