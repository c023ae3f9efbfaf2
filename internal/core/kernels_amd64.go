//go:build amd64 && !purego

package core

import (
	"encoding/binary"
	"math"
	"unsafe"

	"repro/internal/cpu"
)

// haveAsm marks this build as carrying the hand-written amd64 kernels in
// kernels_amd64.s; whether they are dispatched is decided at runtime by
// the feature probe, the REPRO_NOASM kill switch, and SetAsmEnabled.
const haveAsm = true

func init() { asmOn.Store(cpu.AsmAllowed()) }

// useAVX2 reports whether newly constructed superaccumulators select the
// AVX2 front loop and stripe fold: assembly dispatch on, and the CPU/OS
// combination supports YMM state.
func useAVX2() bool { return AsmEnabled() && cpu.X86.HasAVX2 }

// superAddChunkAVX2 is the vectorized superaccumulator front loop
// (kernels_amd64.s): it processes n values at xs, xs[0:stop] — four per
// iteration with a packed exponent gate, falling back to a scalar
// assembly path for short tails — adding each signed significand into the
// stripe of the bin its exponent selects, and maintains the touched-bin
// watermark. Every 8-byte load passes through the byte shuffle shuf
// (shufNative or shufBigEndian), so the same loop folds native float64s
// and big-endian wire payloads. stop == n when every element passed the
// gate; otherwise value stop needs the Go slow path (zero, subnormal,
// out-of-gate, or non-finite) and the caller resumes after it. bins must
// hold superStripes*nbins lanes.
//
//go:noescape
func superAddChunkAVX2(bins *int64, nbins, eMin int64, xs unsafe.Pointer, n, lo, hi int64, shuf *[32]byte) (stop, newLo, newHi int64)

// The VPSHUFB controls superAddChunkAVX2 applies to its loads: the
// identity, and a byte reversal within each 8-byte value.
var (
	shufNative    = [32]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	shufBigEndian = [32]byte{7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8}
)

// foldStripesAVX2 is the vectorized stripe fold (kernels_amd64.s):
// dst[j] = sum of the four stripes of bin j, stripes zeroed — one 256-bit
// load, one horizontal add, and one 256-bit zero store per bin.
//
//go:noescape
func foldStripesAVX2(dst, bins *int64, n int64)

//go:noescape
func addVec2Asm(dst, src []uint64)

//go:noescape
func addVec3Asm(dst, src []uint64)

//go:noescape
func addVec6Asm(dst, src []uint64)

//go:noescape
func addVec8Asm(dst, src []uint64)

// The assembly limb kernels mirror the Go table in kernels.go: plain ADC
// carry chains with every load/store at a fixed offset, so the compiler's
// flag juggling around bits.Add64 disappears. Bit-identical to the
// generic loops by TestAsmKernelsMatchGeneric and the differential fuzz
// target.
var (
	kern2Asm = &limbKernel{n: 2, asm: true, addVec: addVec2Asm}
	kern3Asm = &limbKernel{n: 3, asm: true, addVec: addVec3Asm}
	kern6Asm = &limbKernel{n: 6, asm: true, addVec: addVec6Asm}
	kern8Asm = &limbKernel{n: 8, asm: true, addVec: addVec8Asm}
)

// asmKernelFor returns the assembly limb kernel for a shipped width, or
// nil — callers fall back to the Go table.
func asmKernelFor(n int) *limbKernel {
	switch n {
	case 2:
		return kern2Asm
	case 3:
		return kern3Asm
	case 6:
		return kern6Asm
	case 8:
		return kern8Asm
	default:
		return nil
	}
}

// addChunkAsm drives the AVX2 front loop, bouncing out to the Go slow
// path for each element the packed gate rejects and resuming after it.
func (s *SuperAccumulator) addChunkAsm(xs []float64) {
	for len(xs) > 0 {
		stop := s.runAVX2(unsafe.Pointer(&xs[0]), len(xs), &shufNative)
		if stop == len(xs) {
			return
		}
		s.addSlow(xs[stop])
		xs = xs[stop+1:]
	}
}

// addChunkAsmBE is addChunkAsm over a big-endian float64 payload: the
// loop byte-swaps each value as it loads it.
func (s *SuperAccumulator) addChunkAsmBE(p []byte) {
	for len(p) > 0 {
		n := len(p) / 8
		stop := s.runAVX2(unsafe.Pointer(&p[0]), n, &shufBigEndian)
		if stop == n {
			return
		}
		s.addSlow(math.Float64frombits(binary.BigEndian.Uint64(p[8*stop:])))
		p = p[8*stop+8:]
	}
}

// runAVX2 runs the front loop over n values at xs, loaded through shuf,
// and returns its stop index.
func (s *SuperAccumulator) runAVX2(xs unsafe.Pointer, n int, shuf *[32]byte) int {
	stop, lo, hi := superAddChunkAVX2(&s.bins[0], int64(s.nbins), int64(s.eMin),
		xs, int64(n), int64(s.lo), int64(s.hi), shuf)
	s.lo, s.hi = int(lo), int(hi)
	return int(stop)
}

// foldStripes collapses the bin stripes with the AVX2 fold when this
// accumulator selected the assembly lane, the portable loop otherwise.
func (s *SuperAccumulator) foldStripes(dst, bins []int64) {
	if s.avx2 && len(dst) > 0 {
		foldStripesAVX2(&dst[0], &bins[0], int64(len(dst)))
		return
	}
	foldStripesGeneric(dst, bins)
}
