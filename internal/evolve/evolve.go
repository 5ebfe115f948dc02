// Package evolve turns the repo's immutable CSR graphs into live,
// versioned ones: a mutation API (edge insert/delete batches, random
// growth, attack-edge accretion) where every applied batch produces a
// fresh valid CSR epoch under a monotone version counter, plus the
// incremental estimator that makes tracking mixing time across epochs
// cheap — warm-start power iteration and Lanczos seeded from the
// previous epoch's λ₂ eigenvector.
//
// The design keeps the rest of the system untouched: a MutableGraph
// hands out immutable *graph.Graph snapshots, so every existing
// solver, kernel and experiment runs on an epoch exactly as it would
// on a loaded file. Mutation is an epoch rebuild (sort + dedup via
// graph.Builder), not an in-place CSR patch — O(m log m) per batch,
// which the batch granularity amortizes, in exchange for snapshots
// that are ordinary graphs with every Validate() invariant intact.
// Readers never block writers for longer than a pointer swap.
//
// Versioning contract: Apply bumps the version exactly once per call,
// whether or not the batch changed anything, and versions are never
// reused. Downstream caches key results by (content hash, version),
// so "stale results evict on mutation" reduces to comparing two
// integers — see internal/service for the rule's enforcement.
package evolve

import (
	"fmt"
	"sync"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// Version is the monotone epoch counter of a MutableGraph. The zero
// value names the graph as constructed; every Apply increments it.
type Version uint64

// Batch is one epoch's worth of mutations, applied atomically:
// readers observe either the previous epoch or the fully rebuilt one.
// Inserts and deletes are undirected and normalized internally;
// self-loops, duplicate inserts and deletes of absent edges are
// ignored (and excluded from the applied counts). An edge present in
// both lists is deleted: delete wins, so a batch can be replayed
// idempotently.
type Batch struct {
	Insert []graph.Edge
	Delete []graph.Edge
}

// Result reports what one Apply actually changed.
type Result struct {
	// Version is the epoch the batch produced.
	Version Version
	// Inserted and Deleted count the edges that actually changed the
	// graph (requested minus no-ops).
	Inserted, Deleted int
	// Nodes and Edges describe the new epoch.
	Nodes int
	Edges int64
}

// MutableGraph is a graph that evolves in epochs. It wraps the
// current immutable CSR behind a version counter. Safe for concurrent
// use: Apply serializes writers, Snapshot and the accessors never
// block behind a rebuild.
type MutableGraph struct {
	mu  sync.RWMutex
	g   *graph.Graph
	ver Version
	m   int64 // current undirected edge count
	col *telemetry.Collector
}

// NewMutable wraps g as epoch 0 of a mutable graph. g must not be
// modified by the caller afterwards (graphs are immutable everywhere
// else in this codebase, so that is the default).
func NewMutable(g *graph.Graph) *MutableGraph {
	return &MutableGraph{g: g, m: g.NumEdges()}
}

// SetCollector attaches a telemetry collector counting epochs and
// edge churn. Call before the graph is shared; nil (the default) is
// the uninstrumented fast path.
func (mg *MutableGraph) SetCollector(col *telemetry.Collector) { mg.col = col }

// Snapshot returns the current epoch's immutable graph and its
// version. The graph is safe to hold across future mutations — it is
// the epoch, not a view of it.
func (mg *MutableGraph) Snapshot() (*graph.Graph, Version) {
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return mg.g, mg.ver
}

// Version returns the current epoch counter.
func (mg *MutableGraph) Version() Version {
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return mg.ver
}

// Apply rebuilds the graph with the batch applied and bumps the
// version. The rebuild streams the surviving edges of the current
// epoch plus the effective inserts through graph.Builder, so the new
// epoch satisfies every CSR invariant (sorted, deduplicated,
// loop-free, symmetric) by construction. Inserts may reference node
// IDs beyond the current range, growing it, up to graph.MaxNodes
// nodes: an inserted ID must be below graph.MaxNodes. That bounds
// what the CSR can address, not what memory holds; a server caps
// inserts from untrusted input far lower.
func (mg *MutableGraph) Apply(b Batch) (Result, error) {
	del := make(map[uint64]struct{}, len(b.Delete))
	for _, e := range b.Delete {
		if e.U == e.V {
			continue
		}
		del[edgeKey(e.U, e.V)] = struct{}{}
	}

	mg.mu.Lock()
	defer mg.mu.Unlock()

	nb := graph.NewBuilder(int(mg.m) + len(b.Insert))
	// Preserve the node range even if deletion isolates its endpoints.
	if n := mg.g.NumNodes(); n > 0 {
		nb.AddNode(graph.NodeID(n - 1))
	}
	deleted := 0
	mg.g.Edges(func(u, v graph.NodeID) bool {
		if _, gone := del[edgeKey(u, v)]; gone {
			deleted++
			return true
		}
		nb.AddEdge(u, v)
		return true
	})

	inserted := 0
	for _, e := range b.Insert {
		if e.U == e.V {
			continue
		}
		if int(e.U) >= graph.MaxNodes || int(e.V) >= graph.MaxNodes {
			return Result{}, fmt.Errorf("evolve: edge {%d,%d} exceeds MaxNodes", e.U, e.V)
		}
		key := edgeKey(e.U, e.V)
		// One lookup serves three filters: delete-wins within the batch,
		// and (because del doubles as the batch-local seen set below)
		// duplicate inserts. Builder would dedup anyway, but the applied
		// count must reflect real change.
		if _, skip := del[key]; skip {
			continue
		}
		if int(e.U) < mg.g.NumNodes() && int(e.V) < mg.g.NumNodes() && mg.g.HasEdge(e.U, e.V) {
			continue // already present: a no-op, not an insertion
		}
		del[key] = struct{}{}
		inserted++
		nb.AddEdge(e.U, e.V)
	}

	ng := nb.Build()
	mg.g = ng
	mg.ver++
	mg.m = ng.NumEdges()

	mg.col.Add(telemetry.EvolveEpochs, 1)
	mg.col.Add(telemetry.EvolveEdgesInserted, int64(inserted))
	mg.col.Add(telemetry.EvolveEdgesDeleted, int64(deleted))
	return Result{
		Version:  mg.ver,
		Inserted: inserted,
		Deleted:  deleted,
		Nodes:    ng.NumNodes(),
		Edges:    mg.m,
	}, nil
}

// edgeKey packs a normalized undirected edge into one comparable word.
func edgeKey(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}
