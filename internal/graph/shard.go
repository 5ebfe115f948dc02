package graph

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ShardPlan partitions the vertex range [0, n) of a graph into
// contiguous shards balanced by CSR edge count: each shard's total
// adjacency length (Σ degree) is as close to equal as contiguity
// allows. Row-sharded kernels (parallel matvec, blocked propagation)
// split work along these boundaries so a worker's cost is
// proportional to the edges it touches, not the vertices it owns —
// on power-law social graphs a vertex-balanced split can leave one
// worker with most of the edges.
//
// A plan is computed once per graph (binary searches over the CSR
// offsets, O(shards·log n)) and is immutable and safe for concurrent
// use.
type ShardPlan struct {
	bounds []int // len shards+1; shard i covers vertices [bounds[i], bounds[i+1])
}

// NewShardPlan cuts g into at most shards contiguous vertex ranges of
// near-equal adjacency length. shards < 1 is treated as 1; plans never
// have more shards than vertices. Shards can be empty on extremely
// skewed graphs (a single vertex holding more than 1/shards of all
// edges); Do skips them.
func NewShardPlan(g *Graph, shards int) *ShardPlan {
	n := g.NumNodes()
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	if n == 0 {
		return &ShardPlan{bounds: []int{0}}
	}
	total := int64(g.offsets[n])
	bounds := make([]int, shards+1)
	for i := 1; i < shards; i++ {
		target := total * int64(i) / int64(shards)
		// Smallest v with offsets[v] >= target; clamp to keep bounds
		// non-decreasing.
		v := sort.Search(n, func(v int) bool { return int64(g.offsets[v]) >= target })
		if v < bounds[i-1] {
			v = bounds[i-1]
		}
		bounds[i] = v
	}
	bounds[shards] = n
	return &ShardPlan{bounds: bounds}
}

// NumShards returns the number of shards in the plan.
func (p *ShardPlan) NumShards() int { return len(p.bounds) - 1 }

// Bounds returns the vertex range [lo, hi) of shard i.
func (p *ShardPlan) Bounds(i int) (lo, hi int) { return p.bounds[i], p.bounds[i+1] }

// Do runs fn once per non-empty shard, fanned out over up to workers
// goroutines that claim shards from an atomic counter (so a straggler
// shard does not idle the other workers). workers <= 1 runs the
// shards inline on the calling goroutine. Do returns when every shard
// has been processed; fn must be safe to call concurrently but may
// assume no two calls share a vertex.
func (p *ShardPlan) Do(workers int, fn func(lo, hi int)) {
	shards := p.NumShards()
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for i := 0; i < shards; i++ {
			if lo, hi := p.Bounds(i); lo < hi {
				fn(lo, hi)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= shards {
					return
				}
				if lo, hi := p.Bounds(i); lo < hi {
					fn(lo, hi)
				}
			}
		}()
	}
	wg.Wait()
}

// ShardStats summarizes how evenly a plan splits a graph's adjacency
// — the telemetry behind the "shard imbalance" gauge. A perfectly
// balanced plan has Imbalance 1.0; power-law graphs with one huge hub
// can push it well above that because shards are contiguous.
type ShardStats struct {
	// Shards is the number of non-empty shards.
	Shards int
	// MinAdj and MaxAdj are the smallest and largest shard adjacency
	// lengths (Σ degree over the shard's vertices).
	MinAdj, MaxAdj int64
	// MeanAdj is the mean adjacency length over non-empty shards.
	MeanAdj float64
	// Imbalance is MaxAdj / MeanAdj (1.0 = perfectly balanced).
	Imbalance float64
}

// Stats measures the plan's adjacency balance against g (the graph it
// was built from).
func (p *ShardPlan) Stats(g *Graph) ShardStats {
	var st ShardStats
	for i := 0; i < p.NumShards(); i++ {
		lo, hi := p.Bounds(i)
		if lo >= hi {
			continue
		}
		adj := int64(g.offsets[hi] - g.offsets[lo])
		if st.Shards == 0 || adj < st.MinAdj {
			st.MinAdj = adj
		}
		if adj > st.MaxAdj {
			st.MaxAdj = adj
		}
		st.Shards++
		st.MeanAdj += float64(adj)
	}
	if st.Shards > 0 {
		st.MeanAdj /= float64(st.Shards)
		if st.MeanAdj > 0 {
			st.Imbalance = float64(st.MaxAdj) / st.MeanAdj
		}
	}
	return st
}
