//go:build amd64 && !purego

#include "textflag.h"

// Hand-written amd64 kernels for the summation hot loops. Three groups:
//
//   - superAddChunkAVX2: the superaccumulator front loop, four float64s
//     per iteration, each loaded through a VPSHUFB byte shuffle: the
//     identity for native float64s, a per-qword byte reversal for
//     big-endian wire payloads, so both fold with one loop and no decode
//     pass. Exponent extract, gate compare, and the branchless
//     signed-significand build are fully vectorized; the four bin updates
//     are scalar read-modify-write adds (the bins are a scatter — AVX2 has
//     gathers but no scatters, and a scatter would also have to resolve
//     intra-vector duplicate indices). Each vector lane L adds into stripe
//     L of its bin (byte offset 32*i + 8*L), so the four stores in an
//     iteration can never alias even when all four lanes share one
//     exponent — same-magnitude streams are the common case, and striping
//     turns the one serial store-forwarding chain the scalar loop is bound
//     by into four independent ones.
//   - addVec{2,3,6,8}Asm: straight-line ADC carry chains for the
//     full-width limb kernels. MOVQ does not modify flags, so a load/ADC
//     pair per limb keeps the carry live across the whole chain with no
//     SBB/NEG flag reconstruction.
//   - foldStripesAVX2: per-bin horizontal sum of the four stripes and a
//     256-bit zero store, feeding the spill's scalar window folds.
//
// Exactness: every instruction here implements the same two's-complement
// arithmetic mod 2^64 as the generic Go loops. Bit-identical behavior is
// enforced by the asm differential tests and the FuzzAsmKernelDifferential
// target.

// func superAddChunkAVX2(bins *int64, nbins, eMin int64, xs unsafe.Pointer, n, lo, hi int64, shuf *[32]byte) (stop, newLo, newHi int64)
//
// Register map: DI=bins SI=xs DX=n BX=position R8=eMin R9=nbins
// R10=scalar lo R11=scalar hi R12=mask52 R13=bit52 Y15=load shuffle.
// Y6/Y7 carry the vector watermark (per-lane running min/max of gated
// indices), merged with R10/R11 at exit. The scalar tail/bail path updates
// R10/R11 directly; taking min/max across both at the end is order-free.
TEXT ·superAddChunkAVX2(SB), NOSPLIT, $0-88
	MOVQ bins+0(FP), DI
	MOVQ nbins+8(FP), R9
	MOVQ eMin+16(FP), R8
	MOVQ xs+24(FP), SI
	MOVQ n+32(FP), DX
	MOVQ lo+40(FP), R10
	MOVQ hi+48(FP), R11
	MOVQ shuf+56(FP), AX
	VMOVDQU (AX), Y15          // per-qword byte shuffle applied to every load
	XORQ BX, BX
	MOVQ $0x000FFFFFFFFFFFFF, R12
	MOVQ $0x0010000000000000, R13

	VMOVQ R8, X9
	VPBROADCASTQ X9, Y9        // eMin
	VMOVQ R9, X10
	VPBROADCASTQ X10, Y10      // nbins
	MOVQ $0x7ff, AX
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8        // exponent field mask
	VMOVQ R12, X12
	VPBROADCASTQ X12, Y12      // low 52 bits
	VMOVQ R13, X13
	VPBROADCASTQ X13, Y13      // implicit bit 52
	VPCMPEQQ Y11, Y11, Y11     // -1 in every lane
	VPXOR Y14, Y14, Y14        // zero
	VMOVQ R10, X6
	VPBROADCASTQ X6, Y6        // vector lo watermark
	VMOVQ R11, X7
	VPBROADCASTQ X7, Y7        // vector hi watermark

vecloop:
	MOVQ DX, AX
	SUBQ BX, AX
	CMPQ AX, $4
	JLT  scalar

	VMOVDQU (SI)(BX*8), Y0
	VPSHUFB Y15, Y0, Y0        // four float64 bit patterns in native order
	VPSRLQ  $52, Y0, Y1
	VPAND   Y8, Y1, Y1         // biased exponent e
	VPSUBQ  Y9, Y1, Y1         // i = e - eMin

	// Gate: 0 <= i < nbins in every lane, as two signed compares.
	VPCMPGTQ Y11, Y1, Y2       // i > -1
	VPCMPGTQ Y1, Y10, Y3       // nbins > i
	VPAND    Y3, Y2, Y2
	VMOVMSKPD Y2, AX
	CMPL    AX, $0xf
	JNE     scalar             // any lane gated: scalar path resolves it

	// Signed significand: (m ^ sm) - sm with sm = bv >> 63.
	VPAND    Y12, Y0, Y2
	VPOR     Y13, Y2, Y2       // m = mantissa | 1<<52
	VPCMPGTQ Y0, Y14, Y3       // sm: all-ones where bv < 0
	VPXOR    Y3, Y2, Y2
	VPSUBQ   Y3, Y2, Y2

	// Watermark: lo = min(lo, i), hi = max(hi, i), per lane.
	VPCMPGTQ  Y1, Y6, Y4       // lo > i
	VPBLENDVB Y4, Y1, Y6, Y6
	VPCMPGTQ  Y7, Y1, Y4       // i > hi
	VPBLENDVB Y4, Y1, Y7, Y7

	// Four scalar bin updates: lane L adds into byte offset 32*i + 8*L,
	// with 32*i extracted to a register and the stripe selected by the
	// displacement. Register extraction, not a stack bounce — an 8-byte
	// load from a just-stored 32-byte spill fails store-forwarding and
	// stalls the loop. Lanes cannot alias: the stripe displacement differs
	// even when the exponents match.
	VPSLLQ  $5, Y1, Y4         // 32*i per lane
	VMOVQ   X4, AX
	VPEXTRQ $1, X4, CX
	VMOVQ   X2, R14
	VPEXTRQ $1, X2, R15
	ADDQ    R14, 0(DI)(AX*1)
	ADDQ    R15, 8(DI)(CX*1)
	VEXTRACTI128 $1, Y4, X4
	VEXTRACTI128 $1, Y2, X2
	VMOVQ   X4, AX
	VPEXTRQ $1, X4, CX
	VMOVQ   X2, R14
	VPEXTRQ $1, X2, R15
	ADDQ    R14, 16(DI)(AX*1)
	ADDQ    R15, 24(DI)(CX*1)
	ADDQ    $4, BX
	JMP     vecloop

scalar:
	// One element per pass: the sub-4 tail, and the first element of any
	// vector group with a gated lane. A gate miss returns its index as
	// stop so Go's addSlow resolves it (zero/subnormal/out-of-band/Inf).
	CMPQ BX, DX
	JGE  done
	VMOVQ   (SI)(BX*8), X0
	VPSHUFB X15, X0, X0
	VMOVQ   X0, AX             // bv
	MOVQ AX, CX
	SHRQ $52, CX
	ANDQ $0x7ff, CX
	SUBQ R8, CX                // i = e - eMin
	CMPQ CX, R9
	JAE  done                  // uint(i) >= uint(nbins): gate miss
	MOVQ AX, R14
	ANDQ R12, R14
	ORQ  R13, R14              // m
	SARQ $63, AX               // sm
	XORQ AX, R14
	SUBQ AX, R14               // signed significand
	MOVQ CX, R15
	SHLQ $5, R15               // stripe 0 of bin i
	ADDQ R14, (DI)(R15*1)
	CMPQ CX, R10
	JGE  sc_hi
	MOVQ CX, R10
sc_hi:
	CMPQ CX, R11
	JLE  sc_next
	MOVQ CX, R11
sc_next:
	INCQ BX
	JMP  vecloop

done:
	// Fold the vector watermark lanes into the scalar min/max.
	VEXTRACTI128 $1, Y6, X0
	VPCMPGTQ  X0, X6, X1       // X6 > X0: keep X0
	VPBLENDVB X1, X0, X6, X6
	VPSHUFD   $0x4E, X6, X0    // swap the two qwords
	VPCMPGTQ  X0, X6, X1
	VPBLENDVB X1, X0, X6, X6
	VMOVQ X6, AX
	CMPQ AX, R10
	JGE  lo_done
	MOVQ AX, R10
lo_done:
	VEXTRACTI128 $1, Y7, X0
	VPCMPGTQ  X7, X0, X1       // X0 > X7: keep X0
	VPBLENDVB X1, X0, X7, X7
	VPSHUFD   $0x4E, X7, X0
	VPCMPGTQ  X7, X0, X1
	VPBLENDVB X1, X0, X7, X7
	VMOVQ X7, AX
	CMPQ AX, R11
	JLE  hi_done
	MOVQ AX, R11
hi_done:
	VZEROUPPER
	MOVQ BX, stop+64(FP)
	MOVQ R10, newLo+72(FP)
	MOVQ R11, newHi+80(FP)
	RET

// func foldStripesAVX2(dst, bins *int64, n int64)
//
// dst[j] = sum of the four stripes of bin j; the stripes are zeroed. One
// 256-bit load, two horizontal adds, a 64-bit store, and a 256-bit zero
// store per bin. int64 addition is associative mod 2^64, so the pairwise
// reduction matches the generic left-to-right sum bit for bit.
TEXT ·foldStripesAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ bins+8(FP), SI
	MOVQ n+16(FP), CX
	VPXOR Y3, Y3, Y3
	XORQ BX, BX
floop:
	CMPQ BX, CX
	JGE  fdone
	VMOVDQU (SI), Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ  X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDQ  X1, X0, X0
	VMOVQ   X0, (DI)(BX*8)
	VMOVDQU Y3, (SI)
	ADDQ    $32, SI
	INCQ    BX
	JMP     floop
fdone:
	VZEROUPPER
	RET

// func addVec2Asm(dst, src []uint64)
TEXT ·addVec2Asm(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ 8(SI), AX
	ADDQ AX, 8(DI)
	MOVQ 0(SI), AX
	ADCQ AX, 0(DI)
	RET

// func addVec3Asm(dst, src []uint64)
TEXT ·addVec3Asm(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ 16(SI), AX
	ADDQ AX, 16(DI)
	MOVQ 8(SI), AX
	ADCQ AX, 8(DI)
	MOVQ 0(SI), AX
	ADCQ AX, 0(DI)
	RET

// func addVec6Asm(dst, src []uint64)
TEXT ·addVec6Asm(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ 40(SI), AX
	ADDQ AX, 40(DI)
	MOVQ 32(SI), AX
	ADCQ AX, 32(DI)
	MOVQ 24(SI), AX
	ADCQ AX, 24(DI)
	MOVQ 16(SI), AX
	ADCQ AX, 16(DI)
	MOVQ 8(SI), AX
	ADCQ AX, 8(DI)
	MOVQ 0(SI), AX
	ADCQ AX, 0(DI)
	RET

// func addVec8Asm(dst, src []uint64)
TEXT ·addVec8Asm(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ 56(SI), AX
	ADDQ AX, 56(DI)
	MOVQ 48(SI), AX
	ADCQ AX, 48(DI)
	MOVQ 40(SI), AX
	ADCQ AX, 40(DI)
	MOVQ 32(SI), AX
	ADCQ AX, 32(DI)
	MOVQ 24(SI), AX
	ADCQ AX, 24(DI)
	MOVQ 16(SI), AX
	ADCQ AX, 16(DI)
	MOVQ 8(SI), AX
	ADCQ AX, 8(DI)
	MOVQ 0(SI), AX
	ADCQ AX, 0(DI)
	RET
