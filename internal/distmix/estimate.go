package distmix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"mixtime/internal/api"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/telemetry"
)

// Options configures one distributed estimate. Zero or negative
// numeric fields take the canonical api defaults; Seed is never
// rewritten (zero is a valid seed, matching core.Options).
type Options struct {
	// Shards is the number of simulated workers (default
	// api.DefaultDistShards; capped at the vertex count by the plan).
	// The estimate is identical for any value — only the communication
	// accounting changes — which is the invariant the fingerprint
	// exclusion of dist_shards relies on.
	Shards int
	// WalksPerNode scales the walker population: every source launches
	// WalksPerNode × n walkers (default api.DefaultDistWalks). More
	// walks shrink the sampling noise floor — and cost proportionally
	// more messages.
	WalksPerNode int
	// MaxRounds caps the supersteps per source (default
	// api.DefaultDistRounds). A source that has not mixed by then is
	// reported incomplete with its round cap as a lower bound, matching
	// markov.MixingTime's incomplete semantics.
	MaxRounds int
	// Eps is the variation-distance threshold τ(ε) is measured at
	// (default api.DefaultEps).
	Eps float64
	// Sources is how many start vertices to sample (default
	// api.DefaultSources). Sampling uses the exact derivation of
	// core.MeasureContext — PCG(Seed, 0xc0fe) into
	// markov.SampleSources — so a distmix query and a cdf query with
	// equal seeds measure the same sources.
	Sources int
	// Seed drives the hashed walker steps and source sampling.
	Seed uint64
	// Collector, if non-nil, receives the distmix_* communication
	// counters. Estimates are identical with or without it.
	Collector *telemetry.Collector
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = api.DefaultDistShards
	}
	if o.WalksPerNode <= 0 {
		o.WalksPerNode = api.DefaultDistWalks
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = api.DefaultDistRounds
	}
	if o.Eps <= 0 {
		o.Eps = api.DefaultEps
	}
	if o.Sources <= 0 {
		o.Sources = api.DefaultSources
	}
	return o
}

// SourceEstimate is one source's walk-distribution measurement.
type SourceEstimate struct {
	Source graph.NodeID `json:"source"`
	// Tau is the first walk length whose debiased TV estimate drops
	// below ε. When Mixed is false the source never crossed within
	// MaxRounds and Tau is the round cap (a lower bound).
	Tau   int  `json:"tau"`
	Mixed bool `json:"mixed"`
	// LocalTau is the local mixing time ζ(ε) in the Molla–Pandurangan
	// sense: the first walk length at which vertices holding ≥ 1−ε of
	// the stationary mass are individually within their pointwise
	// tolerance of π. The certificate is pointwise (stricter per
	// vertex than the aggregate TV test), so ζ tracks τ closely but
	// can land on either side of it.
	LocalTau   int  `json:"local_tau"`
	LocalMixed bool `json:"local_mixed"`
	// Rounds is the supersteps this source's engine run executed.
	Rounds int `json:"rounds"`
}

// Result is one distributed mixing-time estimate.
type Result struct {
	Eps          float64 `json:"eps"`
	WalksPerNode int     `json:"walks_per_node"`
	// Walks is the walker population per source (WalksPerNode × n).
	Walks  int `json:"walks"`
	Shards int `json:"shards"`
	// Lazy reports the measured chain (true on bipartite graphs).
	Lazy    bool             `json:"lazy"`
	Sources []SourceEstimate `json:"sources"`
	// Tau applies Definition 1 to the per-source estimates: the
	// maximum first ε-crossing over sources. Complete is false when
	// some source never crossed (Tau is then a lower bound).
	Tau      int  `json:"tau"`
	Complete bool `json:"complete"`
	// LocalTau is the worst-case local mixing time over sources.
	LocalTau      int  `json:"local_tau"`
	LocalComplete bool `json:"local_complete"`
	// NoiseFloor is the expected sampling contribution to the raw TV
	// estimate (½·Σ_v MAD of Bin(K, π_v)/K) subtracted before the ε
	// comparison — the debiasing that makes finite-walker estimates
	// track the exact propagated distance.
	NoiseFloor float64 `json:"noise_floor"`
	// Stats totals the communication accounting over every source's
	// engine run. It depends on the shard count even though the
	// estimate does not.
	Stats Stats `json:"stats"`
}

// walker is the message type: one random-walk token. The accounted
// wire size is 8 bytes (walker id + current position).
type walker struct {
	id  uint32
	pos graph.NodeID
}

const walkerBytes = 8

// partial is one shard's per-round aggregate: exact integer sums, so
// merging across any shard grouping is associative and lossless —
// the root of the shard-count invariance.
type partial struct {
	// absDev is Σ_v |2m·c_v − K·deg_v| over the shard (K·2m·TV̂ scale).
	absDev int64
	// mixedDeg is Σ deg_v over the shard's vertices whose count is
	// within the pointwise tolerance — stationary mass (×2m) already
	// locally mixed.
	mixedDeg int64
}

// EstimateMixingTime measures τ(ε) the distributed way: every sampled
// source floods the graph with K = WalksPerNode·n walk tokens, shards
// advance them one hop per superstep, and each round's exact
// per-shard visit counts are reduced into an ℓ1 distance to the
// degree-proportional stationary distribution. The walk stops at the
// first round whose debiased distance is below ε. Sources run
// sequentially (walker memory stays bounded by one population) and
// each contributes its engine run's communication accounting to the
// returned totals.
//
// Determinism: walker hops are a pure hash of (seed, source, walker,
// round) and every cross-shard reduction is integer arithmetic, so
// the estimate is bit-identical for any shard count and any
// goroutine interleaving — only Stats varies with the plan.
func EstimateMixingTime(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if n < 2 {
		return nil, errors.New("distmix: graph too small to measure")
	}
	if !graph.IsConnected(g) {
		return nil, errors.New("distmix: graph must be connected (mixing time is undefined otherwise)")
	}
	walks := opt.WalksPerNode * n
	if int64(opt.WalksPerNode)*int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("distmix: %d walks per node on %d nodes overflows the walker id space", opt.WalksPerNode, n)
	}
	// Bipartite graphs are measured lazily, mirroring
	// core.MeasureContext's chain convention so estimates stay
	// comparable with the exact answers.
	lazy := graph.IsBipartite(g)

	// The exact derivation core.MeasureContext uses, so distmix and
	// cdf queries with equal seeds measure the same source set (pinned
	// by TestSourceDerivationMatchesCore).
	rng := rand.New(rand.NewPCG(opt.Seed, 0xc0fe))
	sources := markov.SampleSources(g, opt.Sources, rng)

	plan := graph.NewShardPlan(g, opt.Shards)
	res := &Result{
		Eps:           opt.Eps,
		WalksPerNode:  opt.WalksPerNode,
		Walks:         walks,
		Shards:        plan.NumShards(),
		Lazy:          lazy,
		Complete:      true,
		LocalComplete: true,
	}

	// Stationary-distribution scaffolding, computed once in vertex
	// order (the only floating-point inputs; identical for every shard
	// count). devThresh[v] is the pointwise "locally mixed" tolerance
	// on the integer deviation |2m·c_v − K·deg_v|: ε·π_v of real
	// deviation plus two noise MADs, scaled by K·2m.
	twoM := 2 * g.NumEdges()
	k2m := float64(walks) * float64(twoM)
	kDeg := make([]int64, n)
	devThresh := make([]float64, n)
	var floor float64
	for v := 0; v < n; v++ {
		deg := int64(g.Degree(graph.NodeID(v)))
		kDeg[v] = int64(walks) * deg
		pi := float64(deg) / float64(twoM)
		mad := binomMAD(walks, pi)
		floor += mad / 2
		devThresh[v] = (opt.Eps*pi + 2*mad) * k2m
	}
	res.NoiseFloor = floor
	// ζ(ε) target: locally mixed vertices must hold ≥ (1−ε) of the
	// stationary mass, i.e. Σ deg over mixed vertices ≥ (1−ε)·2m.
	localTarget := (1 - opt.Eps) * float64(twoM)

	for _, src := range sources {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("distmix: cancelled: %w", err)
		}
		se, stats, err := estimateSource(ctx, g, plan, src, walks, lazy, opt, kDeg, devThresh, floor, localTarget)
		if err != nil {
			return nil, err
		}
		res.Sources = append(res.Sources, se)
		res.Stats.Add(stats)
		if se.Tau > res.Tau {
			res.Tau = se.Tau
		}
		if se.LocalTau > res.LocalTau {
			res.LocalTau = se.LocalTau
		}
		res.Complete = res.Complete && se.Mixed
		res.LocalComplete = res.LocalComplete && se.LocalMixed
	}
	return res, nil
}

// estimateSource runs one source's walker population to its ε
// crossing (or the round cap) on a fresh engine.
func estimateSource(ctx context.Context, g *graph.Graph, plan *graph.ShardPlan,
	src graph.NodeID, walks int, lazy bool, opt Options,
	kDeg []int64, devThresh []float64, floor, localTarget float64) (SourceEstimate, Stats, error) {

	eng, err := NewEngine[walker, partial](g, plan, walkerBytes, opt.Collector)
	if err != nil {
		return SourceEstimate{}, Stats{}, err
	}
	shards := eng.NumShards()
	twoM := 2 * g.NumEdges()
	runSeed := mix64(mix64(opt.Seed^0x646973746d6978) ^ uint64(src))

	// Per-shard visit counters. Counts accumulate during a round's
	// arrival phase and drain in its departure phase, so they are zero
	// between rounds and a shard only ever touches its own range.
	counts := make([][]int32, shards)
	for s := 0; s < shards; s++ {
		lo, hi := plan.Bounds(s)
		counts[s] = make([]int32, hi-lo)
	}

	// Round r's arrivals are the distribution after r−1 hops, so a
	// crossing detected at round r means τ = r−1. Observing walk
	// length MaxRounds therefore needs MaxRounds+1 rounds.
	step := func(round, shard int, inbox [][]walker, out *Outbox[walker]) partial {
		lo, hi := plan.Bounds(shard)
		c := counts[shard]
		// Arrivals: materialize this round's visit counts.
		for _, batch := range inbox {
			for _, w := range batch {
				c[w.pos-graph.NodeID(lo)]++
			}
		}
		// Aggregate: exact integer ℓ1 deviation and locally-mixed mass.
		var p partial
		for v := lo; v < hi; v++ {
			dev := twoM*int64(c[v-lo]) - kDeg[v]
			if dev < 0 {
				dev = -dev
			}
			p.absDev += dev
			if float64(dev) <= devThresh[v] {
				p.mixedDeg += int64(g.Degree(graph.NodeID(v)))
			}
		}
		// Departures: every walker hops, addressed to its next owner.
		// The hash makes the hop a pure function of (seed, walker,
		// round) — independent of which shard computes it.
		for _, batch := range inbox {
			for _, w := range batch {
				c[w.pos-graph.NodeID(lo)]--
				next := nextHop(g, w.pos, runSeed, w.id, round, lazy)
				out.Send(eng.Owner(next), walker{id: w.id, pos: next})
			}
		}
		return p
	}

	se := SourceEstimate{Source: src}
	eps := opt.Eps
	invScale := 1 / (2 * float64(walks) * float64(twoM))
	var tvDone, localDone bool
	halt := func(round int, partials []partial) bool {
		var absDev, mixedDeg int64
		for _, p := range partials {
			absDev += p.absDev
			mixedDeg += p.mixedDeg
		}
		tau := round - 1
		if !localDone && float64(mixedDeg) >= localTarget {
			se.LocalTau, se.LocalMixed, localDone = tau, true, true
		}
		if tv := float64(absDev)*invScale - floor; !tvDone && tv < eps {
			se.Tau, se.Mixed, tvDone = tau, true, true
		}
		return tvDone && localDone
	}

	initial := make([][]walker, shards)
	seedShard := eng.Owner(src)
	pop := make([]walker, walks)
	for i := range pop {
		pop[i] = walker{id: uint32(i), pos: src}
	}
	initial[seedShard] = pop

	stats, err := eng.Run(ctx, opt.MaxRounds+1, initial, step, halt)
	if err != nil {
		return SourceEstimate{}, Stats{}, err
	}
	se.Rounds = stats.Rounds
	if !se.Mixed {
		se.Tau = opt.MaxRounds // lower bound, like markov.MixingTime
	}
	if !se.LocalMixed {
		se.LocalTau = opt.MaxRounds
	}
	return se, stats, nil
}

// nextHop advances one walker: a lazy coin (when measuring the lazy
// chain) and a uniform neighbor choice, both derived from one
// avalanche hash of (run seed, walker id, round). No shared RNG state
// means no cross-shard coordination and bit-identical walks under any
// partitioning.
func nextHop(g *graph.Graph, v graph.NodeID, runSeed uint64, id uint32, round int, lazy bool) graph.NodeID {
	h := mix64(runSeed + uint64(id)*0x9e3779b97f4a7c15 + uint64(round)*0xd1b54a32d192ed03)
	if lazy {
		if h&1 == 1 {
			return v
		}
		h >>= 1
	}
	adj := g.Neighbors(v)
	return adj[(h>>1)%uint64(len(adj))]
}

// mix64 is the splitmix64 finalizer — a full-avalanche bijection used
// as a counter-mode RNG over (seed, walker, round).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// binomMAD is the exact mean absolute deviation of Bin(k, p)/k around
// p, by De Moivre's closed form E|X−kp| = 2ν(1−p)·P(X=ν) with
// ν = ⌊kp⌋+1. It is the per-vertex sampling noise a finite walker
// population adds to the ℓ1 distance; summed over vertices it gives
// the debiasing floor.
func binomMAD(k int, p float64) float64 {
	if p <= 0 || p >= 1 || k <= 0 {
		return 0
	}
	nu := math.Floor(float64(k)*p) + 1
	if nu > float64(k) {
		nu = float64(k)
	}
	lg := lchoose(k, nu) + nu*math.Log(p) + (float64(k)-nu)*math.Log1p(-p)
	return 2 * nu * (1 - p) * math.Exp(lg) / float64(k)
}

// lchoose is log C(n, k) via Lgamma.
func lchoose(n int, k float64) float64 {
	a, _ := math.Lgamma(float64(n) + 1)
	b, _ := math.Lgamma(k + 1)
	c, _ := math.Lgamma(float64(n) - k + 1)
	return a - b - c
}
