//go:build amd64 && !purego

package core

import "repro/internal/cpu"

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
// (kernels_amd64.s): it processes xs[0:stop] — four float64s per
// iteration with a packed exponent gate, falling back to a scalar
// assembly path for short tails — adding each signed significand into the
// stripe of the bin its exponent selects, and maintains the touched-bin
// watermark. stop == n when every element passed the gate; otherwise
// xs[stop] needs the Go slow path (zero, subnormal, out-of-gate, or
// non-finite) and the caller resumes after it. bins must hold
// superStripes*nbins lanes.
//
//go:noescape
func superAddChunkAVX2(bins *int64, nbins, eMin int64, xs *float64, n, lo, hi int64) (stop, newLo, newHi int64)

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
	lo, hi := int64(s.lo), int64(s.hi)
	for len(xs) > 0 {
		stop, nlo, nhi := superAddChunkAVX2(
			&s.bins[0], int64(s.nbins), int64(s.eMin),
			&xs[0], int64(len(xs)), lo, hi)
		lo, hi = nlo, nhi
		if int(stop) == len(xs) {
			break
		}
		s.addSlow(xs[stop])
		xs = xs[stop+1:]
	}
	s.lo, s.hi = int(lo), int(hi)
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
