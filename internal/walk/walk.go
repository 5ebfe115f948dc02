// Package walk provides random walks on graphs and the "random
// route" primitive of SybilGuard/SybilLimit: per-node random
// permutations mapping incoming edge slots to outgoing edge slots, so
// routes are deterministic per instance, convergent (two routes
// entering a node along the same edge continue identically) and
// back-traceable (the slot maps are bijections).
//
// Endpoint and Endpoints cover the plain-walk needs of SybilInfer and
// the Whānau experiments; Random, which returns the whole trajectory,
// is the reference their tests hold them to. Routes come in two storage
// strategies with identical outputs: materialized permutations (an
// O(m) table per instance, fastest to traverse) and PRF-lazy
// permutations derived per (node, instance) from a keyed SplitMix64,
// which cost more per step but keep memory at O(tails) — the
// trade-off measured by BenchmarkRoutePermutations and discussed in
// DESIGN.md §7. All randomness flows from caller-provided seeds, so
// defense experiments are reproducible run to run.
package walk

import (
	"math/rand/v2"

	"mixtime/internal/fastrand"
	"mixtime/internal/graph"
)

// DirectedEdge is an ordered traversal of an undirected edge.
type DirectedEdge struct {
	From, To graph.NodeID
}

// Random performs a plain random walk of the given length from start
// and returns the full vertex trajectory (length+1 vertices). The
// step loop draws from a private fastrand.PCG derived from rng (one
// Uint64), so each neighbor pick is one direct call to PCG.Uint32n (a
// PCG32 step plus Lemire's bounded draw) — no interface dispatch per
// hop, though the call itself is not inlined. Trajectories are a pure
// function of rng's seed but differ from the pre-fastrand streams.
func Random(g *graph.Graph, start graph.NodeID, length int, rng *rand.Rand) []graph.NodeID {
	pr := fastrand.FromRand(rng)
	traj := make([]graph.NodeID, 0, length+1)
	traj = append(traj, start)
	cur := start
	if off := g.Offsets32(); off != nil {
		adj := g.Adjacency()
		for i := 0; i < length; i++ {
			o := off[cur]
			cur = adj[o+pr.Uint32n(off[cur+1]-o)]
			traj = append(traj, cur)
		}
		return traj
	}
	for i := 0; i < length; i++ {
		adj := g.Neighbors(cur)
		cur = adj[pr.IntN(len(adj))]
		traj = append(traj, cur)
	}
	return traj
}

// Endpoint returns the final vertex of a plain random walk of the
// given length from start. Same fastrand stream discipline as Random.
func Endpoint(g *graph.Graph, start graph.NodeID, length int, rng *rand.Rand) graph.NodeID {
	var end [1]graph.NodeID
	Endpoints(g, start, []int{length}, rng, end[:])
	return end[0]
}

// Endpoints walks once from start to the largest of the ascending
// lengths and writes to ends[k] the vertex the walk occupies after
// lengths[k] steps. It draws exactly as Endpoint does — one Uint64
// from rng, then one PCG.Uint32n per step — so ends[k] equals what
// Endpoint(g, start, lengths[k], rng) would return from rng's current
// state: walks of several lengths from one stream share their prefix,
// and Endpoints pays for the longest alone.
func Endpoints(g *graph.Graph, start graph.NodeID, lengths []int, rng *rand.Rand, ends []graph.NodeID) {
	pr := fastrand.FromRand(rng)
	cur := start
	t := 0
	off, adj := g.Offsets32(), g.Adjacency()
	for k, length := range lengths {
		if off != nil {
			for ; t < length; t++ {
				o := off[cur]
				cur = adj[o+pr.Uint32n(off[cur+1]-o)]
			}
		} else {
			for ; t < length; t++ {
				nb := g.Neighbors(cur)
				cur = nb[pr.IntN(len(nb))]
			}
		}
		ends[k] = cur
	}
}

// splitmix64 is the standard 64-bit finalizer-based PRNG step; used
// to derive independent per-(instance, node) permutation seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// smRand is a tiny splitmix64-state PRNG for in-place Fisher–Yates;
// avoids allocating a rand.Rand per node visit.
type smRand struct{ state uint64 }

func (s *smRand) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// intn returns a uniform value in [0, n) (n > 0) by rejection-free
// multiply-shift; bias is negligible for the degree ranges involved.
func (s *smRand) intn(n int) int {
	return int((s.next() >> 11) % uint64(n))
}

// fillPerm writes a uniform random permutation of [0, d) into dst
// using the seed.
func fillPerm(dst []uint32, d int, seed uint64) {
	for i := 0; i < d; i++ {
		dst[i] = uint32(i)
	}
	r := smRand{state: seed}
	for i := d - 1; i > 0; i-- {
		j := r.intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Router steps random routes: given the directed edge (from → at)
// just traversed, it returns the next hop out of at.
type Router interface {
	// Graph returns the routed graph.
	Graph() *graph.Graph
	// Step maps the incoming directed edge (from, at) to the next
	// vertex after at.
	Step(from, at graph.NodeID) graph.NodeID
}

// Instance is a materialized random-route instance: every node's
// permutation is precomputed, O(2m) memory, O(1) per step. Build one
// per SybilLimit instance, route all nodes, then discard.
type Instance struct {
	g    *graph.Graph
	perm []uint32 // CSR-aligned: perm over v's slots at v's offset
	off  []int64
}

// NewInstance materializes the route permutations for the given
// instance seed.
func NewInstance(g *graph.Graph, seed uint64) *Instance {
	n := g.NumNodes()
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int64(g.Degree(graph.NodeID(v)))
	}
	perm := make([]uint32, off[n])
	for v := 0; v < n; v++ {
		d := g.Degree(graph.NodeID(v))
		fillPerm(perm[off[v]:off[v+1]], d, splitmix64(seed)^splitmix64(uint64(v)+0x5bd1))
	}
	return &Instance{g: g, perm: perm, off: off}
}

// Graph returns the routed graph.
func (in *Instance) Graph() *graph.Graph { return in.g }

// Step implements Router.
func (in *Instance) Step(from, at graph.NodeID) graph.NodeID {
	slot := in.g.EdgeSlot(at, from)
	out := in.perm[in.off[at]+int64(slot)]
	return in.g.Neighbors(at)[out]
}

// Lazy is a route instance that regenerates each node's permutation
// on demand from the PRF seed: zero persistent memory, O(deg) work
// per step. The memory/time trade-off against Instance is an ablation
// benchmark in the harness.
type Lazy struct {
	g       *graph.Graph
	seed    uint64
	scratch []uint32
}

// NewLazy creates a lazy route instance. Not safe for concurrent use
// (it reuses a scratch buffer).
func NewLazy(g *graph.Graph, seed uint64) *Lazy {
	return &Lazy{g: g, seed: seed, scratch: make([]uint32, g.MaxDegree())}
}

// Graph returns the routed graph.
func (l *Lazy) Graph() *graph.Graph { return l.g }

// Step implements Router.
func (l *Lazy) Step(from, at graph.NodeID) graph.NodeID {
	d := l.g.Degree(at)
	p := l.scratch[:d]
	fillPerm(p, d, splitmix64(l.seed)^splitmix64(uint64(at)+0x5bd1))
	slot := l.g.EdgeSlot(at, from)
	return l.g.Neighbors(at)[p[slot]]
}

// Route walks a random route of length w (w ≥ 1 edges) from start,
// taking the given first slot out of start, and returns the tail (the
// last directed edge traversed).
func Route(r Router, start graph.NodeID, firstSlot, w int) DirectedEdge {
	g := r.Graph()
	from := start
	at := g.Neighbors(start)[firstSlot]
	for i := 1; i < w; i++ {
		from, at = at, r.Step(from, at)
	}
	return DirectedEdge{From: from, To: at}
}

// RouteTrace is Route returning the full vertex trajectory
// (w+1 vertices), for tests and diagnostics.
func RouteTrace(r Router, start graph.NodeID, firstSlot, w int) []graph.NodeID {
	g := r.Graph()
	traj := make([]graph.NodeID, 0, w+1)
	from := start
	at := g.Neighbors(start)[firstSlot]
	traj = append(traj, from, at)
	for i := 1; i < w; i++ {
		from, at = at, r.Step(from, at)
		traj = append(traj, at)
	}
	return traj
}
