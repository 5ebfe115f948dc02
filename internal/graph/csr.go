package graph

import "fmt"

// FromCSR32 constructs a Graph directly from its CSR arrays in the
// compact uint32 offset form, validating every structural invariant
// (monotone offsets bounded by the adjacency length, sorted loop-free
// in-range neighbor lists, symmetric edges) before accepting them. It
// is the trusted entry point for deserialized snapshots (the MIXG
// readers): unlike the Builder it performs no re-sorting or
// deduplication, so a valid snapshot loads in O(m) plus the
// validation scan, and a corrupt one returns a wrapped error instead
// of a graph that panics later. Both arrays are adopted directly (no
// copy, no widening); the caller must not modify them afterwards.
func FromCSR32(offsets []uint32, neighbors []NodeID) (*Graph, error) {
	if len(offsets) == 0 {
		if len(neighbors) != 0 {
			return nil, fmt.Errorf("graph: CSR with no offsets but %d neighbors", len(neighbors))
		}
		return &Graph{}, nil
	}
	if len(offsets)-1 > MaxNodes {
		return nil, fmt.Errorf("graph: CSR node count %d exceeds limit %d", len(offsets)-1, MaxNodes)
	}
	g := &Graph{offsets: offsets, neighbors: neighbors}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: invalid CSR: %w", err)
	}
	return g, nil
}

// CSRSizes returns the CSR array lengths a graph with n nodes and m
// undirected edges occupies: n+1 offsets and 2m adjacency entries.
// Loaders use it to sanity-check declared counts against input size
// before allocating.
func CSRSizes(n, m int64) (offsets, neighbors int64) {
	return n + 1, 2 * m
}
