package core

import (
	"math/bits"
	"sync/atomic"
)

// This file holds the specialized unrolled limb kernels for the shipped HP
// formats: the superaccumulator's full-width merge and AddHP loop is
// unrolled per limb count, with the slice bound checks hoisted once via a
// slice-to-array pointer conversion so the bits.Add64 chain compiles to a
// straight-line add-with-carry sequence. NewSuper selects a kernel
// automatically when the format's N matches a shipped format; every other
// format falls back to the generic loop. Results are bit-identical either
// way — the kernels are proven against the generic loop by
// TestKernelsMatchGeneric and ride every existing differential (the super
// fuzz targets run on Params384, which selects kern6).
//
// Only N selects a kernel: the fractional split K affects conversion and
// rounding, not the full-width integer arithmetic unrolled here, so one
// kernel serves every K of a given width.

// asmOn gates dispatch to the hand-written amd64 assembly kernels. It is
// initialized by the build-specific dispatch file (true on amd64 outside
// the purego tag unless the REPRO_NOASM kill switch is set, false
// everywhere else) and consulted at accumulator construction — existing
// accumulators keep the kernels they were built with, so toggling is safe
// concurrently with running folds.
var asmOn atomic.Bool

// AsmEnabled reports whether newly constructed accumulators dispatch to
// the assembly kernels.
func AsmEnabled() bool { return asmOn.Load() }

// SetAsmEnabled enables or disables assembly dispatch for accumulators
// constructed after the call, returning the previous setting. Enabling is
// a no-op on builds without assembly (non-amd64, or the purego tag). The
// differential tests use this to pin the assembly kernels against the
// generic loops in one process; it is also the programmatic arm of the
// REPRO_NOASM environment kill switch.
func SetAsmEnabled(on bool) (prev bool) {
	prev = asmOn.Load()
	asmOn.Store(on && haveAsm)
	return prev
}

// KernelBackend describes the kernel lanes a freshly constructed
// accumulator of format p would select, for benchmark reports and
// diagnostics: "asm+avx2" (unrolled assembly limb kernels plus the AVX2
// superaccumulator front loop), "asm" (assembly limb kernels, scalar
// front loop), "avx2" (AVX2 front loop with generic limb loops — formats
// without a shipped unrolled width), or "generic".
func KernelBackend(p Params) string {
	limbAsm := AsmEnabled() && asmKernelFor(p.N) != nil
	switch {
	case limbAsm && useAVX2():
		return "asm+avx2"
	case limbAsm:
		return "asm"
	case useAVX2():
		return "avx2"
	default:
		return "generic"
	}
}

// limbKernel bundles the unrolled full-width primitives for one limb count.
type limbKernel struct {
	n   int
	asm bool // true for the hand-written assembly variants
	// addVec adds src into dst (dst += src) as a single 64n-bit
	// two's-complement quantity, discarding the carry out of the top limb —
	// the wrapping full-width add behind AddHP and the Merge combines.
	addVec func(dst, src []uint64)
}

// kernelFor returns the unrolled kernel for p's limb count — the assembly
// variant when dispatch allows it, the Go one otherwise — or nil when the
// format has no specialization.
func kernelFor(p Params) *limbKernel {
	if AsmEnabled() {
		if k := asmKernelFor(p.N); k != nil {
			return k
		}
	}
	switch p.N {
	case 2:
		return kern2
	case 3:
		return kern3
	case 6:
		return kern6
	case 8:
		return kern8
	default:
		return nil
	}
}

var (
	kern2 = &limbKernel{n: 2, addVec: addVec2}
	kern3 = &limbKernel{n: 3, addVec: addVec3}
	kern6 = &limbKernel{n: 6, addVec: addVec6}
	kern8 = &limbKernel{n: 8, addVec: addVec8}
)

func addVec2(dst, src []uint64) {
	d, s := (*[2]uint64)(dst), (*[2]uint64)(src)
	var c uint64
	d[1], c = bits.Add64(d[1], s[1], 0)
	d[0], _ = bits.Add64(d[0], s[0], c)
}

func addVec3(dst, src []uint64) {
	d, s := (*[3]uint64)(dst), (*[3]uint64)(src)
	var c uint64
	d[2], c = bits.Add64(d[2], s[2], 0)
	d[1], c = bits.Add64(d[1], s[1], c)
	d[0], _ = bits.Add64(d[0], s[0], c)
}

func addVec6(dst, src []uint64) {
	d, s := (*[6]uint64)(dst), (*[6]uint64)(src)
	var c uint64
	d[5], c = bits.Add64(d[5], s[5], 0)
	d[4], c = bits.Add64(d[4], s[4], c)
	d[3], c = bits.Add64(d[3], s[3], c)
	d[2], c = bits.Add64(d[2], s[2], c)
	d[1], c = bits.Add64(d[1], s[1], c)
	d[0], _ = bits.Add64(d[0], s[0], c)
}

func addVec8(dst, src []uint64) {
	d, s := (*[8]uint64)(dst), (*[8]uint64)(src)
	var c uint64
	d[7], c = bits.Add64(d[7], s[7], 0)
	d[6], c = bits.Add64(d[6], s[6], c)
	d[5], c = bits.Add64(d[5], s[5], c)
	d[4], c = bits.Add64(d[4], s[4], c)
	d[3], c = bits.Add64(d[3], s[3], c)
	d[2], c = bits.Add64(d[2], s[2], c)
	d[1], c = bits.Add64(d[1], s[1], c)
	d[0], _ = bits.Add64(d[0], s[0], c)
}

// foldStripesGeneric collapses the superaccumulator's interleaved bin
// stripes: dst[j] receives the sum of the superStripes lanes of bin j and
// the lanes are zeroed. The per-bin stripe sums cannot overflow — the
// absolute values of all stripes together are bounded by the spill bound
// (see MaxSuperAdds) — and any association order yields the same int64.
// The AVX2 variant in kernels_amd64.s is bit-identical.
func foldStripesGeneric(dst, bins []int64) {
	for j := range dst {
		q := bins[superStripes*j : superStripes*j+4 : superStripes*j+4]
		dst[j] = q[0] + q[1] + q[2] + q[3]
		q[0], q[1], q[2], q[3] = 0, 0, 0, 0
	}
}
