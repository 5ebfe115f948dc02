package sybil

import (
	"math/rand/v2"

	"mixtime/internal/graph"
)

// Attack is a Sybil attack scenario: an honest region and a sybil
// region joined by g attack edges. Honest nodes occupy IDs
// [0, HonestN) of the combined graph; sybil nodes the rest.
type Attack struct {
	// Combined is the whole graph the protocol runs on.
	Combined *graph.Graph
	// HonestN is the number of honest nodes.
	HonestN int
	// AttackEdges is the number of honest↔sybil edges g.
	AttackEdges int
}

// NewAttack wires a sybil region onto an honest region with g attack
// edges whose honest endpoints are chosen uniformly. The sybil graph
// is relabeled to IDs starting at honest.NumNodes().
func NewAttack(honest, sybilRegion *graph.Graph, g int, rng *rand.Rand) *Attack {
	nh := honest.NumNodes()
	b := graph.NewBuilder(int(honest.NumEdges()+sybilRegion.NumEdges()) + g)
	honest.Edges(func(u, v graph.NodeID) bool {
		b.AddEdge(u, v)
		return true
	})
	base := graph.NodeID(nh)
	sybilRegion.Edges(func(u, v graph.NodeID) bool {
		b.AddEdge(base+u, base+v)
		return true
	})
	ns := sybilRegion.NumNodes()
	for i := 0; i < g; i++ {
		hu := graph.NodeID(rng.IntN(nh))
		sv := base + graph.NodeID(rng.IntN(ns))
		b.AddEdge(hu, sv)
	}
	return &Attack{Combined: b.Build(), HonestN: nh, AttackEdges: g}
}

// IsSybil reports whether v belongs to the sybil region.
func (a *Attack) IsSybil(v graph.NodeID) bool { return int(v) >= a.HonestN }

// Sybils returns the sybil node IDs.
func (a *Attack) Sybils() []graph.NodeID {
	out := make([]graph.NodeID, 0, a.Combined.NumNodes()-a.HonestN)
	for v := a.HonestN; v < a.Combined.NumNodes(); v++ {
		out = append(out, graph.NodeID(v))
	}
	return out
}

// HonestNodes returns the honest node IDs.
func (a *Attack) HonestNodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, a.HonestN)
	for v := 0; v < a.HonestN; v++ {
		out = append(out, graph.NodeID(v))
	}
	return out
}

// AttackOutcome summarizes a protocol run under attack.
type AttackOutcome struct {
	// HonestAccepted / HonestTotal: admission among honest suspects.
	HonestAccepted, HonestTotal int
	// SybilAccepted / SybilTotal: admission among protocol-following
	// sybil suspects (a lower bound on what an adversary achieves).
	SybilAccepted, SybilTotal int
	// EscapedTails is the number of the verifier's r routes that
	// entered the sybil region. Every escaped tail is adversary-
	// controlled: the balance condition caps the identities it can
	// admit, so EscapedTails×(per-tail allowance) upper-bounds the
	// sybil admissions of an optimal adversary — the t·g/w escape
	// analysis of the paper's §5.
	EscapedTails int
	// R and W echo protocol parameters.
	R, W int
}

// RunAttack executes SybilLimit from an honest verifier against every
// other node of the combined graph and classifies the outcomes. The
// verifier must be honest.
func RunAttack(a *Attack, verifier graph.NodeID, cfg Config) (*AttackOutcome, error) {
	p, err := NewProtocol(a.Combined, cfg)
	if err != nil {
		return nil, err
	}
	suspects := AllHonest(a.Combined, verifier)
	res := p.Verify(verifier, suspects)
	out := &AttackOutcome{R: res.R, W: res.W}
	for i, s := range suspects {
		if a.IsSybil(s) {
			out.SybilTotal++
			if res.Accepted[i] {
				out.SybilAccepted++
			}
		} else {
			out.HonestTotal++
			if res.Accepted[i] {
				out.HonestAccepted++
			}
		}
	}
	out.EscapedTails = p.escapedTails(a, verifier)
	return out, nil
}

// escapedTails counts verifier routes that touch the sybil region.
func (p *Protocol) escapedTails(a *Attack, verifier graph.NodeID) int {
	escaped := 0
	for i := 0; i < p.cfg.R; i++ {
		for _, v := range p.verifierRoute(i, verifier)[1:] {
			if a.IsSybil(v) {
				escaped++
				break
			}
		}
	}
	return escaped
}
