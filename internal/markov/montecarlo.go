package markov

import (
	"math/rand/v2"

	"mixtime/internal/fastrand"
	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// MCTrace estimates the TV-distance curve from src by simulating
// walks random walks for maxT steps and comparing the empirical
// endpoint distribution with π after every step. It is the
// Monte-Carlo alternative to exact propagation: each step costs
// O(walks) — the endpoint counts and the TV sum are maintained
// incrementally as walkers move, after an O(n) setup — so it is
// cheaper per step than exact propagation's O(m) on huge graphs, but
// noisy: the TV estimate is biased upward by sampling error of order
// √(n/walks), so exact propagation is the method of record (and what
// the paper uses). Kept as an ablation and as a cross-check.
//
// The walker loop draws from a private fastrand.PCG derived from rng
// (one Uint64), so each move costs one direct PCG.Uint32n call (a
// PCG32 step and a Lemire bounded draw; the call is not inlined)
// instead of an interface dispatch per neighbor pick.
// Results are still a pure function of rng's seed, but the stream
// differs from the pre-fastrand one.
func (c *Chain) MCTrace(src graph.NodeID, maxT, walks int, rng *rand.Rand) *Trace {
	pr := fastrand.FromRand(rng)
	n := c.g.NumNodes()
	pos := make([]graph.NodeID, walks)
	for i := range pos {
		pos[i] = src
	}
	invWalks := 1 / float64(walks)
	// counts holds the walker count per vertex, term the vertex's
	// |counts/walks − π| contribution, and sum the running Σ term — so
	// a walker moving a→b only recomputes the two affected terms.
	counts := make([]float64, n)
	counts[src] = float64(walks)
	term := make([]float64, n)
	var sum float64
	for v := 0; v < n; v++ {
		d := counts[v]*invWalks - c.pi[v]
		if d < 0 {
			d = -d
		}
		term[v] = d
		sum += d
	}
	tv := make([]float64, maxT)
	off := c.g.Offsets32()
	adj := c.g.Adjacency()
	var moves int64 // batched into the collector after the loop
	for t := 0; t < maxT; t++ {
		for i, v := range pos {
			if c.lazy && pr.Coin() {
				continue
			}
			moves++
			var u graph.NodeID
			if off != nil {
				o := off[v]
				u = adj[o+pr.Uint32n(off[v+1]-o)]
			} else {
				nb := c.g.Neighbors(v)
				u = nb[pr.IntN(len(nb))]
			}
			pos[i] = u
			sum -= term[v] + term[u]
			counts[v]--
			counts[u]++
			dv := counts[v]*invWalks - c.pi[v]
			if dv < 0 {
				dv = -dv
			}
			du := counts[u]*invWalks - c.pi[u]
			if du < 0 {
				du = -du
			}
			term[v], term[u] = dv, du
			sum += dv + du
		}
		if sum < 0 {
			sum = 0 // clamp float noise from incremental updates
		}
		tv[t] = sum / 2
	}
	if c.col != nil {
		c.col.Add(telemetry.WalkerMoves, moves)
		c.col.Add(telemetry.TracesCompleted, 1)
	}
	return &Trace{Source: src, TV: tv}
}

// SampleSources draws k vertices uniformly at random (with
// replacement if k exceeds n) for use as trace sources.
func SampleSources(g *graph.Graph, k int, rng *rand.Rand) []graph.NodeID {
	n := g.NumNodes()
	if k >= n {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(i)
		}
		return out
	}
	out := make([]graph.NodeID, 0, k)
	seen := make(map[graph.NodeID]bool, k)
	for len(out) < k {
		v := graph.NodeID(rng.IntN(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
