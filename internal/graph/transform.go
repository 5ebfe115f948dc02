package graph

import "slices"

// Subgraph returns the subgraph induced by nodes, relabeled to the
// contiguous range [0, len(nodes)). The second return value maps new
// node IDs back to the original IDs (it is a copy of nodes with
// duplicates removed, in first-seen order).
//
// The rows are written straight from g's CSR through the relabeling,
// in O(n + m). An ascending node list keeps g's row order; any other
// (a BFS sample, say) costs a sort of each row.
func Subgraph(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	const absent = ^NodeID(0)
	remap := make([]NodeID, g.NumNodes())
	for i := range remap {
		remap[i] = absent
	}
	orig := make([]NodeID, 0, len(nodes))
	for _, v := range nodes {
		if remap[v] == absent {
			remap[v] = NodeID(len(orig))
			orig = append(orig, v)
		}
	}
	if len(orig) == 0 {
		return &Graph{}, orig
	}
	offsets := make([]uint32, len(orig)+1)
	for i, v := range orig {
		kept := uint32(0)
		for _, w := range g.Neighbors(v) {
			if remap[w] != absent {
				kept++
			}
		}
		offsets[i+1] = offsets[i] + kept
	}
	monotone := slices.IsSorted(orig)
	neighbors := make([]NodeID, offsets[len(orig)])
	for i, v := range orig {
		row := neighbors[offsets[i]:offsets[i+1]]
		j := 0
		for _, w := range g.Neighbors(v) {
			if nw := remap[w]; nw != absent {
				row[j] = nw
				j++
			}
		}
		if !monotone {
			slices.Sort(row)
		}
	}
	return &Graph{offsets: offsets, neighbors: neighbors}, orig
}

// ConnectedComponents labels every node with a component index in
// [0, k) and returns the labels together with the size of each
// component. Empty graphs yield (nil, nil).
func ConnectedComponents(g *Graph) (labels []int32, sizes []int64) {
	n := g.NumNodes()
	if n == 0 {
		return nil, nil
	}
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []NodeID
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		comp := int32(len(sizes))
		size := int64(0)
		queue = append(queue[:0], NodeID(start))
		labels[start] = comp
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, w := range g.Neighbors(v) {
				if labels[w] == -1 {
					labels[w] = comp
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return labels, sizes
}

// IsConnected reports whether the graph is connected. Graphs with at
// most one node are connected.
func IsConnected(g *Graph) bool {
	_, sizes := ConnectedComponents(g)
	return len(sizes) <= 1
}

// LargestComponent extracts the largest connected component, relabeled
// to [0, k). The mixing time is undefined for disconnected graphs, so
// the paper measures the largest component of every dataset. The
// second return value maps new IDs to original IDs.
//
// A connected g is returned itself, with the identity map, rather
// than copied: the result then shares g's storage and lifetime (for a
// graphio.MappedGraph, it is valid only until Close).
func LargestComponent(g *Graph) (*Graph, []NodeID) {
	labels, sizes := ConnectedComponents(g)
	if len(sizes) == 0 {
		return &Graph{}, nil
	}
	if len(sizes) == 1 {
		ids := make([]NodeID, len(labels))
		for v := range ids {
			ids[v] = NodeID(v)
		}
		return g, ids
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	nodes := make([]NodeID, 0, sizes[best])
	for v, l := range labels {
		if l == int32(best) {
			nodes = append(nodes, NodeID(v))
		}
	}
	return Subgraph(g, nodes)
}

// Trim iteratively removes every node of degree < minDeg until the
// remaining graph has minimum degree >= minDeg (the (minDeg)-core),
// then relabels. This is the preprocessing SybilGuard/SybilLimit apply
// to speed up mixing; Figure 6 of the paper measures its effect on
// DBLP. The second return value maps new IDs to original IDs. The
// result may be empty.
func Trim(g *Graph, minDeg int) (*Graph, []NodeID) {
	n := g.NumNodes()
	deg := make([]int, n)
	removed := make([]bool, n)
	var queue []NodeID
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(NodeID(v))
		if deg[v] < minDeg {
			removed[v] = true
			queue = append(queue, NodeID(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Neighbors(v) {
			if removed[w] {
				continue
			}
			deg[w]--
			if deg[w] < minDeg {
				removed[w] = true
				queue = append(queue, w)
			}
		}
	}
	nodes := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if !removed[v] {
			nodes = append(nodes, NodeID(v))
		}
	}
	return Subgraph(g, nodes)
}

// Coreness returns each node's core number: the largest k such that
// the node survives in the k-core (Trim to min degree k). Computed in
// O(m) by the Batagelj–Zaveršnik bucket peeling. Trim levels and
// coreness agree: Trim(g, k) keeps exactly the nodes with
// coreness ≥ k.
func Coreness(g *Graph) []int {
	n := g.NumNodes()
	core := make([]int, n)
	if n == 0 {
		return core
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(NodeID(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort nodes by degree.
	binStart := make([]int, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		binStart[d] += binStart[d-1]
	}
	pos := make([]int, n)   // node → position in order
	order := make([]int, n) // sorted by current degree
	cursor := make([]int, maxDeg+1)
	copy(cursor, binStart[:maxDeg+1])
	for v := 0; v < n; v++ {
		pos[v] = cursor[deg[v]]
		order[pos[v]] = v
		cursor[deg[v]]++
	}
	start := make([]int, maxDeg+1)
	copy(start, binStart[:maxDeg+1])

	for i := 0; i < n; i++ {
		v := order[i]
		core[v] = deg[v]
		for _, w := range g.Neighbors(NodeID(v)) {
			if deg[w] > deg[v] {
				// Move w to the front of its degree bucket, then
				// decrement its degree.
				dw := deg[w]
				pw := pos[w]
				pFront := start[dw]
				u := order[pFront]
				if u != int(w) {
					order[pw], order[pFront] = u, int(w)
					pos[u], pos[w] = pw, pFront
				}
				start[dw]++
				deg[w]--
			}
		}
	}
	return core
}

// IsBipartite reports whether the graph is bipartite. A connected
// bipartite graph has a periodic random walk (SLEM = 1) and never
// mixes; callers should use the lazy chain on such graphs.
func IsBipartite(g *Graph) bool {
	n := g.NumNodes()
	color := make([]int8, n) // 0 unseen, 1 / 2 sides
	var queue []NodeID
	for start := 0; start < n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		queue = append(queue[:0], NodeID(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				switch color[w] {
				case 0:
					color[w] = 3 - color[v]
					queue = append(queue, w)
				case color[v]:
					return false
				}
			}
		}
	}
	return true
}
