//go:build !amd64

package markov

import "mixtime/internal/graph"

// useAVX2 is always false off amd64; the pure-Go register kernels in
// block.go carry the blocked propagation.
var useAVX2 = false

func stepRows8AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool) {
	panic("markov: AVX2 kernel called on non-amd64")
}

func stepRows4AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool) {
	panic("markov: AVX2 kernel called on non-amd64")
}

func stepRows2AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool) {
	panic("markov: AVX2 kernel called on non-amd64")
}

func blockTVAVX(p, pi []float64, n, strideBytes, lanes int, tv []float64) {
	panic("markov: AVX2 kernel called on non-amd64")
}

func scaleAVX(w, p, inv []float64, n, width int) {
	panic("markov: AVX2 kernel called on non-amd64")
}
