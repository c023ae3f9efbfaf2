//go:build amd64 && !purego

package wire

import "repro/internal/cpu"

// useAVX2 selects the vector encoder: assembly allowed (not the purego
// lane, no REPRO_NOASM kill switch) and AVX2 present.
var useAVX2 = cpu.AsmAllowed() && cpu.X86.HasAVX2

// bswap64AVX2 writes the n float64s at src to dst as big-endian bit
// patterns, four per VPSHUFB (float64s_amd64.s). n must be a multiple
// of 4.
//
//go:noescape
func bswap64AVX2(dst *byte, src *float64, n int)

// putFloat64s writes xs into dst (8*len(xs) bytes) as big-endian bit
// patterns: whole groups of four through the vector loop, the rest
// through the portable one.
func putFloat64s(dst []byte, xs []float64) {
	if k := len(xs) &^ 3; useAVX2 && k > 0 {
		dst = dst[:8*len(xs)]
		bswap64AVX2(&dst[0], &xs[0], k)
		dst, xs = dst[8*k:], xs[k:]
	}
	putFloat64sGeneric(dst, xs)
}
