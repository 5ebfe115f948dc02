//go:build amd64

package markov

import "mixtime/internal/graph"

// useAVX2 gates the hand-written AVX2 SpMM kernels in block_amd64.s.
// It is a variable, not a constant, so the byte-identity tests can
// force the pure-Go path and compare outputs bit for bit; nothing
// else may write it after init.
var useAVX2 = detectAVX2()

// detectAVX2 performs the full OS-aware feature dance: the CPU must
// report OSXSAVE+AVX (CPUID.1:ECX), the OS must have enabled XMM+YMM
// state saving (XCR0 bits 1 and 2 via XGETBV), and the CPU must
// report AVX2 (CPUID.7.0:EBX bit 5). Checking the CPUID bit alone is
// not enough: without the XCR0 check a kernel that does not
// context-switch YMM state would corrupt registers across preemption.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, cx, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avxBit = 1 << 28
	if cx&osxsave == 0 || cx&avxBit == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, bx, _, _ := cpuidex(7, 0)
	return bx&(1<<5) != 0
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (extended control register 0).
func xgetbv() (eax, edx uint32)

// stepRows8AVX advances an 8-column group of a strideBytes-wide block
// for rows [lo, hi): lane j of the YMM accumulators is column j, so
// each column sums its CSR neighbors in exactly the sequential
// kernel's order and the output is byte-identical to the pure-Go
// stepBlockRows8s kernel. dst, p and w must already be offset to
// the group's base column; strideBytes is the full block row stride
// in bytes (width*8).
//
//go:noescape
func stepRows8AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool)

// stepRows4AVX is stepRows8AVX for a 4-column group (one YMM
// register per row).
//
//go:noescape
func stepRows4AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool)

// stepRows2AVX is stepRows8AVX for a 2-column group (one XMM
// register per row).
//
//go:noescape
func stepRows2AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool)

// blockTVAVX accumulates, for each of the lanes (8, 4 or 2)
// columns of one group of a strideBytes-wide row-major block,
// Σ_v |p[v][j] − pi[v]| into tv[j] (the caller halves). p and tv are
// offset to the group's first column. Lane j is column j and rows are
// scanned in ascending order, so the per-column summation order
// matches the scalar blockTV.
//
//go:noescape
func blockTVAVX(p, pi []float64, n, strideBytes, lanes int, tv []float64)

// scaleAVX computes w[v][j] = p[v][j] * inv[v] over an n×width
// row-major block — the prescale pass, at any width.
//
//go:noescape
func scaleAVX(w, p, inv []float64, n, width int)
