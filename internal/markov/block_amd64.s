// AVX2 kernels for the blocked propagation hot path.
//
// The byte-identity argument (see block.go): lane j of a YMM register
// is column j of the block, rows are visited in ascending order and
// each column's neighbor sums accumulate in CSR order, so these
// kernels produce exactly the bits the pure-Go register kernels (and
// the sequential Step, column by column) produce. The only float ops
// are adds and multiplies by broadcast scalars, both commutative, so
// operand order differences between Go and VEX encodings cannot
// change results.

#include "textflag.h"

DATA half<>+0(SB)/8, $0x3FE0000000000000 // 0.5
GLOBL half<>(SB), RODATA, $8

DATA absmask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absmask<>(SB), RODATA, $8

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func stepRows8AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool)
//
// Register plan: DI/R15 walk the dst/p rows, SI holds the w base
// (neighbor gathers are scattered, so no walking pointer), R8/R9 the
// offset/adjacency bases, R13 the row stride in bytes, R10 the row
// counter against R11, R12 the lazy flag. Y0/Y1 are the 8 column
// accumulators, Y15 the broadcast 0.5.
TEXT ·stepRows8AVX(SB), NOSPLIT, $0-145
	MOVQ dst_base+0(FP), DI
	MOVQ p_base+24(FP), R15
	MOVQ w_base+48(FP), SI
	MOVQ off_base+72(FP), R8
	MOVQ adj_base+96(FP), R9
	MOVQ strideBytes+120(FP), R13
	MOVQ lo+128(FP), R10
	MOVQ hi+136(FP), R11
	MOVBLZX lazy+144(FP), R12
	MOVQ R10, DX
	IMULQ R13, DX
	ADDQ DX, DI
	ADDQ DX, R15
	VBROADCASTSD half<>(SB), Y15

row8:
	CMPQ R10, R11
	JGE  done8
	MOVL (R8)(R10*4), AX  // i = off[v]
	MOVL 4(R8)(R10*4), BX // end = off[v+1]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ AX, BX
	JGE  epi8
	// Functions are only 32-byte aligned, so where unrelated code
	// places this one decides whether the 27-byte edge loop straddles
	// two cache lines; straddling cost the blocked step ~10% on a
	// 2-vCPU Xeon. Aligning the loop itself keeps it in one decode
	// window and one line wherever the function lands.
	PCALIGN $32

edge8:
	MOVL (R9)(AX*4), DX // u = adj[i]
	IMULQ R13, DX       // byte offset of w row u
	VADDPD (SI)(DX*1), Y0, Y0
	VADDPD 32(SI)(DX*1), Y1, Y1
	INCQ AX
	CMPQ AX, BX
	JL   edge8

epi8:
	TESTB R12, R12
	JZ   store8
	VMOVUPD (R15), Y2 // lazy: out = 0.5*p_row + 0.5*s
	VMOVUPD 32(R15), Y3
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y1, Y1
	VMULPD Y15, Y2, Y2
	VMULPD Y15, Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1

store8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ R13, DI
	ADDQ R13, R15
	INCQ R10
	JMP  row8

done8:
	VZEROUPPER
	RET

// func stepRows4AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool)
//
// The 4-column twin: one YMM accumulator, 32-byte rows.
TEXT ·stepRows4AVX(SB), NOSPLIT, $0-145
	MOVQ dst_base+0(FP), DI
	MOVQ p_base+24(FP), R15
	MOVQ w_base+48(FP), SI
	MOVQ off_base+72(FP), R8
	MOVQ adj_base+96(FP), R9
	MOVQ strideBytes+120(FP), R13
	MOVQ lo+128(FP), R10
	MOVQ hi+136(FP), R11
	MOVBLZX lazy+144(FP), R12
	MOVQ R10, DX
	IMULQ R13, DX
	ADDQ DX, DI
	ADDQ DX, R15
	VBROADCASTSD half<>(SB), Y15

row4:
	CMPQ R10, R11
	JGE  done4
	MOVL (R8)(R10*4), AX
	MOVL 4(R8)(R10*4), BX
	VXORPD Y0, Y0, Y0
	CMPQ AX, BX
	JGE  epi4
	PCALIGN $32 // as for edge8

edge4:
	MOVL (R9)(AX*4), DX
	IMULQ R13, DX
	VADDPD (SI)(DX*1), Y0, Y0
	INCQ AX
	CMPQ AX, BX
	JL   edge4

epi4:
	TESTB R12, R12
	JZ   store4
	VMOVUPD (R15), Y2
	VMULPD Y15, Y0, Y0
	VMULPD Y15, Y2, Y2
	VADDPD Y2, Y0, Y0

store4:
	VMOVUPD Y0, (DI)
	ADDQ R13, DI
	ADDQ R13, R15
	INCQ R10
	JMP  row4

done4:
	VZEROUPPER
	RET

// func stepRows2AVX(dst, p, w []float64, off []uint32, adj []graph.NodeID, strideBytes, lo, hi int, lazy bool)
//
// The 2-column twin: one XMM accumulator (the low half of a YMM
// register), 16-byte row groups. Narrow-tail blocks (sources mod 8
// ≡ 2, 3, 6 or 7) run here instead of in scalar Go.
TEXT ·stepRows2AVX(SB), NOSPLIT, $0-145
	MOVQ dst_base+0(FP), DI
	MOVQ p_base+24(FP), R15
	MOVQ w_base+48(FP), SI
	MOVQ off_base+72(FP), R8
	MOVQ adj_base+96(FP), R9
	MOVQ strideBytes+120(FP), R13
	MOVQ lo+128(FP), R10
	MOVQ hi+136(FP), R11
	MOVBLZX lazy+144(FP), R12
	MOVQ R10, DX
	IMULQ R13, DX
	ADDQ DX, DI
	ADDQ DX, R15
	VBROADCASTSD half<>(SB), Y15

row2:
	CMPQ R10, R11
	JGE  done2
	MOVL (R8)(R10*4), AX
	MOVL 4(R8)(R10*4), BX
	VXORPD X0, X0, X0
	CMPQ AX, BX
	JGE  epi2
	PCALIGN $32 // as for edge8

edge2:
	MOVL (R9)(AX*4), DX
	IMULQ R13, DX
	VADDPD (SI)(DX*1), X0, X0
	INCQ AX
	CMPQ AX, BX
	JL   edge2

epi2:
	TESTB R12, R12
	JZ   store2
	VMOVUPD (R15), X2
	VMULPD X15, X0, X0
	VMULPD X15, X2, X2
	VADDPD X2, X0, X0

store2:
	VMOVUPD X0, (DI)
	ADDQ R13, DI
	ADDQ R13, R15
	INCQ R10
	JMP  row2

done2:
	VZEROUPPER
	RET

// func blockTVAVX(p, pi []float64, n, strideBytes, lanes int, tv []float64)
//
// Accumulates Σ_v |p[v][j] − π_v| into tv[j] for the lanes (8, 4 or
// 2) columns of one group; p is offset to the group's first column
// and strideBytes is the block row stride. Lane j is column j and rows
// are scanned in ascending order, so the per-column summation order
// matches the scalar blockTV.
TEXT ·blockTVAVX(SB), NOSPLIT, $0-96
	MOVQ p_base+0(FP), SI
	MOVQ pi_base+24(FP), R8
	MOVQ n+48(FP), CX
	MOVQ strideBytes+56(FP), R13
	MOVQ lanes+64(FP), R11
	MOVQ tv_base+72(FP), DI
	VBROADCASTSD absmask<>(SB), Y14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ R11, $8
	JEQ  tv8
	CMPQ R11, $4
	JEQ  tv4

tv2:
	TESTQ CX, CX
	JZ   tv2done
	VBROADCASTSD (R8), Y2 // π_v
	VMOVUPD (SI), X3
	VSUBPD X2, X3, X3     // p_row − π_v
	VANDPD X14, X3, X3    // |·|
	VADDPD X3, X0, X0
	ADDQ $8, R8
	ADDQ R13, SI
	DECQ CX
	JMP  tv2

tv2done:
	VMOVUPD X0, (DI)
	VZEROUPPER
	RET

tv4:
	TESTQ CX, CX
	JZ   tv4done
	VBROADCASTSD (R8), Y2
	VMOVUPD (SI), Y3
	VSUBPD Y2, Y3, Y3
	VANDPD Y14, Y3, Y3
	VADDPD Y3, Y0, Y0
	ADDQ $8, R8
	ADDQ R13, SI
	DECQ CX
	JMP  tv4

tv4done:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

tv8:
	TESTQ CX, CX
	JZ   tv8done
	VBROADCASTSD (R8), Y2
	VMOVUPD (SI), Y3
	VMOVUPD 32(SI), Y4
	VSUBPD Y2, Y3, Y3
	VSUBPD Y2, Y4, Y4
	VANDPD Y14, Y3, Y3
	VANDPD Y14, Y4, Y4
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	ADDQ $8, R8
	ADDQ R13, SI
	DECQ CX
	JMP  tv8

tv8done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func scaleAVX(w, p, inv []float64, n, width int)
//
// The prescale pass w[v][j] = p[v][j] * inv[v] over an n×width
// row-major block, any width: per row, 8- and 4-column YMM chunks,
// then a 2-column XMM and a 1-column scalar remainder. Each element
// is one multiply, so the chunking cannot change a bit.
TEXT ·scaleAVX(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), DI
	MOVQ p_base+24(FP), SI
	MOVQ inv_base+48(FP), R8
	MOVQ n+72(FP), CX
	MOVQ width+80(FP), R11

scrow:
	TESTQ CX, CX
	JZ   scdone
	VBROADCASTSD (R8), Y2 // 1/deg(v)
	MOVQ R11, DX

sc8:
	CMPQ DX, $8
	JL   sc4
	VMULPD (SI), Y2, Y0
	VMULPD 32(SI), Y2, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, DX
	JMP  sc8

sc4:
	CMPQ DX, $4
	JL   sc2
	VMULPD (SI), Y2, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, DX

sc2:
	CMPQ DX, $2
	JL   sc1
	VMULPD (SI), X2, X0
	VMOVUPD X0, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $2, DX

sc1:
	TESTQ DX, DX
	JZ   scnext
	VMULSD (SI), X2, X0
	VMOVSD X0, (DI)
	ADDQ $8, SI
	ADDQ $8, DI

scnext:
	ADDQ $8, R8
	DECQ CX
	JMP  scrow

scdone:
	VZEROUPPER
	RET
