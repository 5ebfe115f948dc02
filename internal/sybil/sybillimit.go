// Package sybil implements the social-network Sybil defenses whose
// assumptions the paper measures: SybilLimit (Yu et al., Oakland
// 2008) with its r = r₀√m random-route instances, tail-intersection
// and balance conditions, a SybilGuard-style single-route baseline,
// and the attack model (a sybil region wired to the honest region by
// g attack edges) used to quantify how walk length trades admission
// of honest nodes against acceptance of sybils.
package sybil

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"mixtime/internal/graph"
	"mixtime/internal/walk"
)

// Config parameterizes a SybilLimit run.
type Config struct {
	// R is the number of random-route instances. If 0, it is derived
	// as ceil(R0·√m) per the SybilLimit design.
	R int
	// R0 is the multiplier for the derived R (default 4, the value
	// the SybilLimit paper suggests for >99.9% intersection).
	R0 float64
	// W is the random-route length — the protocol's stand-in for the
	// mixing time, and the knob the paper's Figure 8 sweeps.
	W int
	// Seed makes the run deterministic.
	Seed uint64
	// BalanceFloor is b₀, the minimum per-tail load allowance
	// (default 4 + ⌈log₂ r⌉).
	BalanceFloor int
	// BalanceMult is h, the multiplier on the average per-tail load
	// (default 4).
	BalanceMult float64
}

func (c Config) withDefaults(m int64) (Config, error) {
	if c.W < 1 {
		return c, errors.New("sybil: route length W must be ≥ 1")
	}
	if c.R0 <= 0 {
		c.R0 = 4
	}
	if c.R == 0 {
		c.R = int(math.Ceil(c.R0 * math.Sqrt(float64(m))))
	}
	if c.R < 1 {
		return c, fmt.Errorf("sybil: invalid instance count R=%d", c.R)
	}
	if c.BalanceFloor <= 0 {
		c.BalanceFloor = 4 + int(math.Ceil(math.Log2(float64(c.R))))
	}
	if c.BalanceMult <= 0 {
		c.BalanceMult = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// Result reports one verifier's admission decisions over a suspect
// set.
type Result struct {
	Verifier graph.NodeID
	// Accepted[i] reports the decision for Suspects[i].
	Suspects []graph.NodeID
	Accepted []bool
	// NumAccepted counts true entries of Accepted.
	NumAccepted int
	// NoIntersection counts suspects rejected because no instance had
	// a tail intersection; BalanceRejected counts suspects that
	// intersected but failed the balance condition.
	NoIntersection  int
	BalanceRejected int
	// R and W echo the effective protocol parameters.
	R, W int
}

// AcceptRate returns the fraction of suspects accepted.
func (r *Result) AcceptRate() float64 {
	if len(r.Suspects) == 0 {
		return 0
	}
	return float64(r.NumAccepted) / float64(len(r.Suspects))
}

// Protocol is a configured SybilLimit deployment on a fixed graph.
type Protocol struct {
	g   *graph.Graph
	cfg Config
}

// NewProtocol validates the configuration against the graph. The
// graph must be connected with no isolated vertices (run it on the
// largest connected component, as the paper does).
func NewProtocol(g *graph.Graph, cfg Config) (*Protocol, error) {
	if g.NumNodes() < 2 {
		return nil, errors.New("sybil: graph too small")
	}
	if g.MinDegree() < 1 {
		return nil, errors.New("sybil: graph has an isolated vertex")
	}
	cfg, err := cfg.withDefaults(g.NumEdges())
	if err != nil {
		return nil, err
	}
	return &Protocol{g: g, cfg: cfg}, nil
}

// Config returns the effective configuration (with derived defaults).
func (p *Protocol) Config() Config { return p.cfg }

// edgeKey packs a directed edge for map/compare use.
func edgeKey(e walk.DirectedEdge) uint64 {
	return uint64(e.From)<<32 | uint64(e.To)
}

// firstSlot derives the deterministic first hop a node takes in an
// instance, uniform over its edge slots.
func firstSlot(seed uint64, instance int, v graph.NodeID, deg int) int {
	x := seed ^ (uint64(instance)+1)*0x9e3779b97f4a7c15 ^ (uint64(v)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return int(x % uint64(deg))
}

// instanceSeed derives the route-instance seed of one protocol
// instance.
func (p *Protocol) instanceSeed(instance int) uint64 {
	return p.cfg.Seed*0x100000001b3 + uint64(instance)
}

// verifierRoute traces the verifier's route (w+1 vertices) in one
// instance, filling only the permutations it visits. The verifier's
// routes use an independent first-slot stream (different salt), so
// they are uncorrelated with a suspect route started at the same
// node.
func (p *Protocol) verifierRoute(instance int, verifier graph.NodeID) []graph.NodeID {
	vs := firstSlot(p.cfg.Seed^0xa5a5a5a5, instance, verifier, p.g.Degree(verifier))
	return walk.LazyRouteTrace(p.g, p.instanceSeed(instance), verifier, vs, p.cfg.W)
}

// Verify runs the full SybilLimit admission protocol. The verifier
// and every suspect perform one random route of length w in each of
// the r instances; a suspect's tail set (the last directed edges of
// its routes) must intersect the verifier's tail set — with
// r = r₀·√m both sets are ~√m uniform samples of the edge set, so
// honest pairs intersect with high probability by the birthday
// paradox, provided w reaches the mixing time. The suspect is then
// admitted only if the balance condition holds: the least-loaded
// intersecting verifier tail must stay below max(b₀, h·(A+1)/r),
// where A counts prior admissions — the mechanism that caps what an
// adversary gains from tails escaped into a sybil region.
func (p *Protocol) Verify(verifier graph.NodeID, suspects []graph.NodeID) *Result {
	res := &Result{
		Verifier: verifier,
		Suspects: suspects,
		Accepted: make([]bool, len(suspects)),
		R:        p.cfg.R,
		W:        p.cfg.W,
	}
	// Pass 1: the verifier's r tails, indexed for membership tests.
	// vTailIdx maps a tail edge to the verifier tail indices holding
	// it (several instances may share a tail edge). One route per
	// instance fills only the ≤ w permutations it visits.
	vTailIdx := make(map[uint64][]int32, p.cfg.R)
	for i := 0; i < p.cfg.R; i++ {
		route := p.verifierRoute(i, verifier)
		key := edgeKey(walk.DirectedEdge{From: route[p.cfg.W-1], To: route[p.cfg.W]})
		vTailIdx[key] = append(vTailIdx[key], int32(i))
	}
	// Pass 2: per instance, compute every suspect's tail and record
	// which verifier tails it hits (across all instances). Each
	// instance is materialized once (O(m)) for all the suspects and
	// dropped before the next: caching all r would cost O(r·m)
	// memory.
	intersecting := make([][]int32, len(suspects))
	for i := 0; i < p.cfg.R; i++ {
		r := walk.NewInstance(p.g, p.instanceSeed(i))
		for j, v := range suspects {
			s := firstSlot(p.cfg.Seed, i, v, p.g.Degree(v))
			key := edgeKey(walk.Route(r, v, s, p.cfg.W))
			if hits, ok := vTailIdx[key]; ok {
				intersecting[j] = append(intersecting[j], hits...)
			}
		}
	}
	// Pass 3: sequential balance condition over the suspects in a
	// seed-determined random order (arrival order matters for load).
	order := make([]int, len(suspects))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewPCG(p.cfg.Seed, 0xba1a))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

	loads := make([]int, p.cfg.R)
	admitted := 0
	for _, j := range order {
		insts := intersecting[j]
		if len(insts) == 0 {
			res.NoIntersection++
			continue
		}
		best := insts[0]
		for _, i := range insts[1:] {
			if loads[i] < loads[best] {
				best = i
			}
		}
		threshold := math.Max(float64(p.cfg.BalanceFloor),
			p.cfg.BalanceMult*float64(admitted+1)/float64(p.cfg.R))
		if float64(loads[best]+1) > threshold {
			res.BalanceRejected++
			continue
		}
		loads[best]++
		admitted++
		res.Accepted[j] = true
	}
	res.NumAccepted = admitted
	return res
}

// AllHonest returns every node of the graph as the suspect set,
// excluding the verifier itself — the Figure 8 workload: how many
// honest nodes does a trusted verifier admit at walk length w?
func AllHonest(g *graph.Graph, verifier graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, g.NumNodes()-1)
	for v := 0; v < g.NumNodes(); v++ {
		if graph.NodeID(v) != verifier {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}
