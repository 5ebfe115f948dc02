// Package gen generates graphs: deterministic reference topologies
// with known spectra (cycles, cliques, hypercubes, barbells) used to
// validate the spectral machinery, and the random social-graph models
// (Barabási–Albert, Watts–Strogatz, Erdős–Rényi, power-law
// configuration, planted partition, relaxed caveman) that stand in for
// the paper's proprietary datasets.
//
// Every generator takes an explicit *rand.Rand so experiments are
// reproducible from a seed; none touch global state.
package gen

import "mixtime/internal/graph"

// Ring returns the cycle C_n.
func Ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

// Path returns the path graph P_n.
func Path(n int) *graph.Graph {
	if n <= 0 {
		return &graph.Graph{}
	}
	b := graph.NewBuilder(n - 1)
	b.AddNode(graph.NodeID(n - 1))
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build()
}

// Star returns the star K_{1,leaves} with the hub at node 0.
func Star(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	return b.Build()
}

// Grid returns the rows×cols 2-D lattice.
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(2 * rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube Q_d with 2^d nodes.
// Its walk spectrum is {(d−2k)/d}; bipartite for every d.
func Hypercube(d int) *graph.Graph {
	n := 1 << d
	b := graph.NewBuilder(n * d / 2)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.AddEdge(graph.NodeID(v), graph.NodeID(w))
			}
		}
	}
	return b.Build()
}

// Barbell joins two K_k cliques by a single bridge edge — the
// canonical slow-mixing topology (conductance Θ(1/k²)).
func Barbell(k int) *graph.Graph {
	b := graph.NewBuilder(k * (k - 1))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			b.AddEdge(graph.NodeID(k+i), graph.NodeID(k+j))
		}
	}
	b.AddEdge(0, graph.NodeID(k))
	return b.Build()
}
