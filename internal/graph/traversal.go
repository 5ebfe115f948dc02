package graph

// BFS visits nodes in breadth-first order from start, calling fn with
// each node and its depth. Traversal stops early if fn returns false.
func BFS(g *Graph, start NodeID, fn func(v NodeID, depth int) bool) {
	n := g.NumNodes()
	if n == 0 {
		return
	}
	seen := make([]bool, n)
	type item struct {
		v     NodeID
		depth int
	}
	queue := make([]item, 0, 64)
	queue = append(queue, item{start, 0})
	seen[start] = true
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		if !fn(it.v, it.depth) {
			return
		}
		for _, w := range g.Neighbors(it.v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, item{w, it.depth + 1})
			}
		}
	}
}

// BFSSample returns the first k nodes reached by a breadth-first
// search from start (fewer if start's component is smaller). This is
// the sampling procedure the paper uses to cut 10K/100K/1000K-node
// subgraphs out of the million-node datasets; the paper notes BFS may
// bias the sample toward faster mixing, which only strengthens its
// slow-mixing conclusion.
func BFSSample(g *Graph, start NodeID, k int) []NodeID {
	nodes := make([]NodeID, 0, k)
	BFS(g, start, func(v NodeID, _ int) bool {
		nodes = append(nodes, v)
		return len(nodes) < k
	})
	return nodes
}

// BFSSubgraph BFS-samples k nodes from start and returns the induced
// subgraph together with the new-to-original ID mapping.
func BFSSubgraph(g *Graph, start NodeID, k int) (*Graph, []NodeID) {
	return Subgraph(g, BFSSample(g, start, k))
}
