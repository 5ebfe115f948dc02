// Package whanau implements the core of Whānau (Lesniewski-Laas &
// Kaashoek, NSDI 2010), the Sybil-proof DHT whose fast-mixing
// evidence the paper's §2 disputes. Whānau builds all routing state
// from random-walk samples: if walks of length w reach the
// stationary distribution, every table is a near-uniform sample of
// the network and lookups succeed in O(1) hops; if the graph mixes
// slower than w, tables are local and lookups for faraway keys fail.
// That dependence is exactly what the experiments measure.
//
// This implementation keeps the protocol's structure — ID sampling by
// walk endpoints, finger tables of walk samples, successor lists
// assembled from sampled records, one-hop lookup through the best
// finger — with a single layer (the multi-layer construction defends
// against clustering attacks, orthogonal to the mixing question).
package whanau

import (
	"cmp"
	"errors"
	"math/rand/v2"
	"slices"

	"mixtime/internal/graph"
	"mixtime/internal/walk"
)

// Key is a position on the DHT ring.
type Key uint64

// ringDist returns the clockwise distance from a to b.
func ringDist(a, b Key) uint64 { return uint64(b - a) }

// record is a (key → owner) binding.
type record struct {
	key   Key
	owner graph.NodeID
}

// node is one participant's routing state.
type node struct {
	id         Key
	fingers    []record // walk-sampled (id, node) pairs, sorted by id
	successors []record // records following id on the ring
}

// Config parameterizes table construction.
type Config struct {
	// W is the random-walk length used for every sample — the
	// protocol's stand-in for the mixing time.
	W int
	// Fingers is the finger-table size r_f (default 2·⌈√n⌉).
	Fingers int
	// Successors is the successor-list size r_s (default 2·⌈√n⌉).
	Successors int
	// SuccessorCandidates scales how many walk samples are drawn to
	// assemble the successor list (default 4 × Successors).
	SuccessorCandidates int
	// Seed makes table construction deterministic.
	Seed uint64
}

func (c Config) withDefaults(n int) (Config, error) {
	if c.W < 1 {
		return c, errors.New("whanau: walk length W must be ≥ 1")
	}
	root := 1
	for root*root < n {
		root++
	}
	if c.Fingers <= 0 {
		c.Fingers = 2 * root
	}
	if c.Successors <= 0 {
		c.Successors = 2 * root
	}
	if c.SuccessorCandidates <= 0 {
		c.SuccessorCandidates = 4 * c.Successors
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// DHT is a built Whānau instance over a social graph.
type DHT struct {
	g     *graph.Graph
	cfg   Config
	keys  []Key // record key stored by each node
	nodes []node
}

// Build constructs the DHT: every node draws its key, then samples
// fingers and successors by random walks of length cfg.W.
func Build(g *graph.Graph, cfg Config) (*DHT, error) {
	n := g.NumNodes()
	if n < 2 || g.MinDegree() < 1 {
		return nil, errors.New("whanau: graph unsuitable (need connected component)")
	}
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x3a0a))
	d := &DHT{g: g, cfg: cfg, keys: make([]Key, n), nodes: make([]node, n)}
	for v := range d.keys {
		d.keys[v] = Key(rng.Uint64())
	}
	for v := 0; v < n; v++ {
		nd := &d.nodes[v]
		// Layer-0 ID: the key of a random walk sample (the protocol's
		// ID sampling; using a sampled key rather than one's own makes
		// IDs distributed like the records the tables must cover).
		idOwner := walk.Endpoint(g, graph.NodeID(v), cfg.W, rng)
		nd.id = d.keys[idOwner]

		// Fingers: walk endpoints with their IDs — here their record
		// keys, since IDs are key samples.
		nd.fingers = make([]record, 0, cfg.Fingers)
		for i := 0; i < cfg.Fingers; i++ {
			e := walk.Endpoint(g, graph.NodeID(v), cfg.W, rng)
			nd.fingers = append(nd.fingers, record{key: d.keys[e], owner: e})
		}
		slices.SortFunc(nd.fingers, func(a, b record) int { return cmp.Compare(a.key, b.key) })

		// Successors: sample records and keep those closest after id.
		cand := make([]record, 0, cfg.SuccessorCandidates)
		for i := 0; i < cfg.SuccessorCandidates; i++ {
			e := walk.Endpoint(g, graph.NodeID(v), cfg.W, rng)
			cand = append(cand, record{key: d.keys[e], owner: e})
		}
		slices.SortFunc(cand, func(a, b record) int {
			return cmp.Compare(ringDist(nd.id, a.key), ringDist(nd.id, b.key))
		})
		if len(cand) > cfg.Successors {
			cand = cand[:cfg.Successors]
		}
		nd.successors = cand
	}
	return d, nil
}

// KeyOf returns the record key stored by v.
func (d *DHT) KeyOf(v graph.NodeID) Key { return d.keys[v] }

// Lookup routes from the source node toward target: the source tries
// its fingers in order of ring closeness to (just before) the target;
// each queried finger checks its successor list for the exact record.
// It returns the owner and the number of finger queries used, or
// ok=false if no finger's successors cover the target.
func (d *DHT) Lookup(source graph.NodeID, target Key) (owner graph.NodeID, queries int, ok bool) {
	src := &d.nodes[source]
	// Order fingers by how little they overshoot the target going
	// clockwise: the best finger is the one whose id most closely
	// precedes the target.
	type cand struct {
		dist uint64
		idx  int
	}
	cands := make([]cand, len(src.fingers))
	for i, f := range src.fingers {
		cands[i] = cand{dist: ringDist(f.key, target), idx: i}
	}
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.dist, b.dist) })
	for _, c := range cands {
		queries++
		f := src.fingers[c.idx]
		for _, s := range d.nodes[f.owner].successors {
			if s.key == target {
				return s.owner, queries, true
			}
		}
	}
	return 0, queries, false
}

// SuccessRate measures the fraction of random (source, target-record)
// lookups that succeed, the headline metric tying lookup success to
// walk length.
func (d *DHT) SuccessRate(trials int, rng *rand.Rand) float64 {
	if trials <= 0 {
		return 0
	}
	n := d.g.NumNodes()
	hits := 0
	for i := 0; i < trials; i++ {
		src := graph.NodeID(rng.IntN(n))
		tgt := d.keys[rng.IntN(n)]
		if _, _, ok := d.Lookup(src, tgt); ok {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}
