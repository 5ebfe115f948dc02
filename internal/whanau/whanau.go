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

// node is one participant's routing state. Tables hold record owners
// only: the record v stores is (keys[v] → v), so an owner names its
// record and the key is read back as keys[owner].
type node struct {
	id         Key
	fingers    []graph.NodeID // walk-sampled record owners, sorted by key
	successors []graph.NodeID // owners of the records closest after id
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

func (c Config) withDefaults(n int) Config {
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
	return c
}

// DHT is a built Whānau instance over a social graph.
type DHT struct {
	g     *graph.Graph
	cfg   Config
	keys  []Key // record key stored by each node
	nodes []node
}

// Build constructs the DHT: every node draws its key, then samples
// fingers and successors by random walks of length cfg.W. It is
// BuildLengths at the one length cfg.W.
func Build(g *graph.Graph, cfg Config) (*DHT, error) {
	ds, err := BuildLengths(g, cfg, []int{cfg.W})
	if err != nil {
		return nil, err
	}
	return ds[0], nil
}

// BuildLengths builds one DHT per walk length in the ascending list
// ws, ignoring cfg.W: ds[k] is the DHT Build returns for cfg with
// W = ws[k], table for table. Construction draws the keys and then one
// walk stream per sample from the same seeded rng in the same order
// whatever W is, so sample i of node v at length ws[k] is the
// ws[k]-step prefix of that sample at the largest length. Each sample
// is therefore walked once, to the largest length, and its endpoint
// at every requested length goes to that length's tables. The DHTs
// share one key array.
func BuildLengths(g *graph.Graph, cfg Config, ws []int) ([]*DHT, error) {
	n := g.NumNodes()
	if n < 2 || g.MinDegree() < 1 {
		return nil, errors.New("whanau: graph unsuitable (need connected component)")
	}
	if len(ws) == 0 {
		return nil, errors.New("whanau: no walk length")
	}
	for k, w := range ws {
		if w < 1 {
			return nil, errors.New("whanau: walk length W must be ≥ 1")
		}
		if k > 0 && w < ws[k-1] {
			return nil, errors.New("whanau: walk lengths must ascend")
		}
	}
	cfg = cfg.withDefaults(n)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x3a0a))
	keys := make([]Key, n)
	for v := range keys {
		keys[v] = Key(rng.Uint64())
	}
	nf, nc := cfg.Fingers, cfg.SuccessorCandidates
	ns := min(cfg.Successors, nc)
	ds := make([]*DHT, len(ws))
	for k, w := range ws {
		c := cfg
		c.W = w
		d := &DHT{g: g, cfg: c, keys: keys, nodes: make([]node, n)}
		fingers := make([]graph.NodeID, n*nf)
		successors := make([]graph.NodeID, n*ns)
		for v := range d.nodes {
			d.nodes[v].fingers = fingers[v*nf : (v+1)*nf : (v+1)*nf]
			d.nodes[v].successors = successors[v*ns : (v+1)*ns : (v+1)*ns]
		}
		ds[k] = d
	}
	byKey := func(a, b graph.NodeID) int { return cmp.Compare(keys[a], keys[b]) }
	ends := make([]graph.NodeID, len(ws))
	cand := make([]graph.NodeID, len(ws)*nc) // length k's candidates at [k*nc, (k+1)*nc)
	near := make([]ringCand, nc)
	for v := 0; v < n; v++ {
		start := graph.NodeID(v)
		// Layer-0 ID: the key of a random walk sample (the protocol's
		// ID sampling; using a sampled key rather than one's own makes
		// IDs distributed like the records the tables must cover).
		walk.Endpoints(g, start, ws, rng, ends)
		for k, e := range ends {
			ds[k].nodes[v].id = keys[e]
		}
		// Fingers: walk endpoints, keyed by their records — IDs are
		// key samples.
		for i := 0; i < nf; i++ {
			walk.Endpoints(g, start, ws, rng, ends)
			for k, e := range ends {
				ds[k].nodes[v].fingers[i] = e
			}
		}
		// Successors: sample records and keep those closest after id.
		for i := 0; i < nc; i++ {
			walk.Endpoints(g, start, ws, rng, ends)
			for k, e := range ends {
				cand[k*nc+i] = e
			}
		}
		for k, d := range ds {
			nd := &d.nodes[v]
			slices.SortFunc(nd.fingers, byKey)
			for i, e := range cand[k*nc : (k+1)*nc] {
				near[i] = ringCand{ringDist(nd.id, keys[e]), e}
			}
			selectNearest(near, ns)
			for i := range nd.successors {
				nd.successors[i] = near[i].owner
			}
		}
	}
	return ds, nil
}

// ringCand is a successor candidate with its ring distance after the
// building node's id.
type ringCand struct {
	dist  uint64
	owner graph.NodeID
}

// selectNearest moves the k nearest candidates to c[:k] in ascending
// distance: a quickselect drops the far ones, and only the kept
// prefix is sorted. Distinct keys lie at distinct distances and equal
// distances mean the same owner, so c[:k] equals the first k entries
// of a full sort.
func selectNearest(c []ringCand, k int) {
	lo, hi := 0, len(c)-1
	for lo < hi && k < len(c) {
		pivot := c[lo+(hi-lo)/2].dist
		i, j := lo, hi
		for i <= j {
			for c[i].dist < pivot {
				i++
			}
			for c[j].dist > pivot {
				j--
			}
			if i <= j {
				c[i], c[j] = c[j], c[i]
				i++
				j--
			}
		}
		// c[lo:j+1] ≤ pivot ≤ c[i:hi+1]; anything between equals it.
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default: // c[k-1] equals the pivot: c[:k] holds the k nearest
			lo = hi
		}
	}
	slices.SortFunc(c[:k], func(a, b ringCand) int { return cmp.Compare(a.dist, b.dist) })
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
		cands[i] = cand{dist: ringDist(d.keys[f], target), idx: i}
	}
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.dist, b.dist) })
	for _, c := range cands {
		queries++
		for _, s := range d.nodes[src.fingers[c.idx]].successors {
			if d.keys[s] == target {
				return s, queries, true
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
