//go:build !amd64 || purego

package core

// haveAsm is false on builds without assembly kernels: non-amd64
// architectures and the purego lane. SetAsmEnabled(true) stays a no-op
// and every dispatch point resolves to the generic Go loops.
const haveAsm = false

// asmKernelFor has no assembly kernels to offer on this build.
func asmKernelFor(int) *limbKernel { return nil }

// useAVX2 is false without assembly: the front loop is always generic.
func useAVX2() bool { return false }

// addChunkAsm is never selected on this build (avx2 is always false); it
// delegates to the generic loop so the dispatch site stays build-agnostic.
func (s *SuperAccumulator) addChunkAsm(xs []float64) { s.addChunkGeneric(xs) }

// addChunkAsmBE is never selected on this build either.
func (s *SuperAccumulator) addChunkAsmBE(p []byte) { s.addChunkGenericBE(p) }

// foldStripes collapses the bin stripes with the portable loop.
func (s *SuperAccumulator) foldStripes(dst, bins []int64) { foldStripesGeneric(dst, bins) }
