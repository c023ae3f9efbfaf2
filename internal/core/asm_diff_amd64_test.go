//go:build amd64 && !purego

package core

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/cpu"
	"repro/internal/wire"
)

// This file proves the amd64 assembly kernels bit-identical to the
// portable Go loops on the machine running the tests: the superaccumulator
// AVX2 front loop against addChunkGeneric across formats, slice shapes,
// and special values; the unrolled ADC limb kernels against the bits.Add64
// chains on full-range random limb vectors; and the stripe fold. The
// purego CI lane runs the same suites with every assembly entry point
// compiled out, so the generic loops remain independently covered.

// requireAVX2 skips differential tests on hardware without the AVX2 lane
// — unless REPRO_REQUIRE_ASM is set (the CI amd64 lane), where silent
// fallback must fail the job, not skip it.
func requireAVX2(t *testing.T) {
	t.Helper()
	if useAVX2() {
		return
	}
	if os.Getenv("REPRO_REQUIRE_ASM") != "" {
		t.Fatalf("REPRO_REQUIRE_ASM set but AVX2 lane unavailable (AsmEnabled=%v, features=%q)",
			AsmEnabled(), cpu.Features())
	}
	t.Skip("AVX2 lane unavailable on this machine")
}

// TestAsmActiveWhenRequired fails loudly when the CI runner that is meant
// to exercise the assembly lane would silently run generic code instead.
func TestAsmActiveWhenRequired(t *testing.T) {
	if os.Getenv("REPRO_REQUIRE_ASM") == "" {
		t.Skip("REPRO_REQUIRE_ASM not set")
	}
	if !cpu.AsmAllowed() {
		t.Fatalf("REPRO_REQUIRE_ASM set but cpu.AsmAllowed() = false (kill switch %v, features %q)",
			cpu.KillSwitch(), cpu.Features())
	}
	if !AsmEnabled() {
		t.Fatal("REPRO_REQUIRE_ASM set but core.AsmEnabled() = false")
	}
	if !cpu.X86.HasAVX2 || !useAVX2() {
		t.Fatalf("REPRO_REQUIRE_ASM set but AVX2 front loop not selected (features %q)", cpu.Features())
	}
	if kernelFor(Params384) == nil || !kernelFor(Params384).asm {
		t.Fatal("REPRO_REQUIRE_ASM set but kernelFor(Params384) is not the assembly kernel")
	}
}

// superTwins builds one superaccumulator on the assembly lane and one on
// the generic lane, regardless of the process-wide dispatch default.
func superTwins(t *testing.T, p Params) (asm, gen *SuperAccumulator) {
	t.Helper()
	prev := SetAsmEnabled(true)
	asm = NewSuper(p)
	SetAsmEnabled(false)
	gen = NewSuper(p)
	SetAsmEnabled(prev)
	if !asm.avx2 {
		t.Fatal("twin construction did not select the AVX2 lane")
	}
	if gen.avx2 {
		t.Fatal("twin construction did not select the generic lane")
	}
	return asm, gen
}

// diffSupers drives both twins through identical AddSlice calls and
// compares every piece of observable state (spilledDiff).
func diffSupers(t *testing.T, asm, gen *SuperAccumulator, slices [][]float64) {
	t.Helper()
	for _, xs := range slices {
		asm.AddSlice(xs)
		gen.AddSlice(xs)
	}
	if d := spilledDiff(asm, gen); d != "" {
		t.Fatalf("asm vs generic: %s", d)
	}
}

// TestAsmChunkMatchesGeneric: the AVX2 front loop against the generic loop
// on every shipped and degenerate format, over value streams spanning the
// format range plus the full slow-path menagerie.
func TestAsmChunkMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	specials := []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(),
		0x1p-1074, -0x1p-1074, 0x1p-1022, // subnormals and the normal edge
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5, 1.5, 1e308, 1e-308,
	}
	for _, p := range batchFormats {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			xs := batchValues(p, 99, 4000)
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				xs[r.Intn(len(xs))] = specials[r.Intn(len(specials))]
			}
			// Deliver as ragged sub-slices so chunk boundaries land at
			// every alignment relative to the vector width.
			var slices [][]float64
			for off := 0; off < len(xs); {
				n := r.Intn(97) + 1
				if off+n > len(xs) {
					n = len(xs) - off
				}
				slices = append(slices, xs[off:off+n])
				off += n
			}
			asm, gen := superTwins(t, p)
			diffSupers(t, asm, gen, slices)
		})
	}
}

// TestAsmChunkShortSlices: every length 0..40 from an unaligned backing
// offset, interleaved with spills, so the vector/scalar boundary and the
// sub-4 tail are each hit at every position.
func TestAsmChunkShortSlices(t *testing.T) {
	requireAVX2(t)
	backing := batchValues(Params384, 5, 64)
	backing[7] = 0            // gate miss inside the first vector group
	backing[13] = math.Inf(1) // sticky error mid-stream
	backing[14] = 0x1p-1074   // subnormal slow path
	asm, gen := superTwins(t, Params384)
	for n := 0; n <= 40; n++ {
		for off := 0; off < 3; off++ {
			xs := backing[off : off+n]
			asm.AddSlice(xs)
			gen.AddSlice(xs)
		}
		if n%8 == 0 {
			asm.Spill()
			gen.Spill()
		}
	}
	diffSupers(t, asm, gen, nil)
}

// TestAsmChunkBEMatchesGeneric: the AVX2 front loop reading big-endian
// payloads (VPSHUFB after each load, the same shuffle in the scalar tail)
// against the Go twin, on every format with specials, in ragged payloads
// at every byte alignment.
func TestAsmChunkBEMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	for _, p := range batchFormats {
		t.Run(p.String(), func(t *testing.T) {
			asm, gen := superTwins(t, p)
			xs := beStream(p, 77, 4000)
			r := rand.New(rand.NewSource(13))
			buf := make([]byte, 8+8*97)
			for off := 0; off < len(xs); {
				n := min(r.Intn(97)+1, len(xs)-off)
				align := r.Intn(8)
				payload := wire.AppendFloat64s(buf[:align], xs[off:off+n])[align:]
				asm.AddFloat64sBE(payload)
				gen.AddFloat64sBE(payload)
				off += n
			}
			if d := spilledDiff(asm, gen); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// TestAsmChunkBEShortSlices: every payload length 0..67 values at each of
// three byte offsets, gate misses and a sticky error inside the first
// vector groups, with the spill bound lowered so spills split payloads at
// every position relative to the vector width.
func TestAsmChunkBEShortSlices(t *testing.T) {
	requireAVX2(t)
	xs := batchValues(Params384, 5, 70)
	xs[2] = 0             // gate miss inside the first vector group
	xs[6] = math.NaN()    // sticky error mid-stream
	xs[9] = -0x1p-1074    // subnormal slow path
	xs[13] = math.Inf(-1) // a second non-finite value: the error stays the first
	backing := wire.AppendFloat64s(nil, xs)
	for _, every := range []uint64{MaxSuperAdds, 7} {
		asm, gen := superTwins(t, Params384)
		for _, s := range []*SuperAccumulator{asm, gen} {
			s.spillEvery, s.room = every, every
		}
		for n := 0; n <= 67; n++ {
			for off := 0; off < 3; off++ {
				payload := backing[8*off : 8*(off+n)]
				asm.AddFloat64sBE(payload)
				gen.AddFloat64sBE(payload)
			}
			if d := superDiff(asm, gen); d != "" {
				t.Fatalf("spill every %d, length %d: %s", every, n, d)
			}
		}
		if d := spilledDiff(asm, gen); d != "" {
			t.Fatalf("spill every %d: %s", every, d)
		}
	}
}

// TestAsmKernelsMatchGeneric: the ADC limb kernels against the bits.Add64
// chains on full-range random vectors — every shipped width, including the
// wrap-prone edges.
func TestAsmKernelsMatchGeneric(t *testing.T) {
	if !AsmEnabled() {
		if os.Getenv("REPRO_REQUIRE_ASM") != "" {
			t.Fatal("REPRO_REQUIRE_ASM set but assembly dispatch is off")
		}
		t.Skip("assembly dispatch off")
	}
	r := rand.New(rand.NewSource(11))
	edge := []uint64{0, 1, math.MaxUint64, 1 << 63, 1<<63 - 1, 1<<62 + 1}
	randLimbs := func(n int) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			if r.Intn(4) == 0 {
				v[i] = edge[r.Intn(len(edge))]
			} else {
				v[i] = r.Uint64()
			}
		}
		return v
	}
	for _, n := range []int{2, 3, 6, 8} {
		ka, kg := asmKernelFor(n), kernelForN(n)
		if ka == nil || !ka.asm {
			t.Fatalf("asmKernelFor(%d) missing", n)
		}
		for trial := 0; trial < 5000; trial++ {
			dstA := randLimbs(n)
			dstG := append([]uint64(nil), dstA...)
			src := randLimbs(n)
			ka.addVec(dstA, src)
			kg.addVec(dstG, src)
			for i := range dstA {
				if dstA[i] != dstG[i] {
					t.Fatalf("addVec%d limb %d: asm %#x, generic %#x", n, i, dstA[i], dstG[i])
				}
			}
		}
	}
}

// kernelForN returns the generic Go kernel for a shipped width, bypassing
// the asm-first dispatch in kernelFor.
func kernelForN(n int) *limbKernel {
	switch n {
	case 2:
		return kern2
	case 3:
		return kern3
	case 6:
		return kern6
	case 8:
		return kern8
	}
	return nil
}

// TestFoldStripesAsmMatchesGeneric: the AVX2 stripe fold against the
// portable loop — same sums, same zeroing — on random striped states.
func TestFoldStripesAsmMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	r := rand.New(rand.NewSource(3))
	for _, nb := range []int{1, 2, 3, 7, 64, 331} {
		binsA := make([]int64, superStripes*nb)
		for i := range binsA {
			binsA[i] = int64(r.Uint64())
		}
		binsG := append([]int64(nil), binsA...)
		dstA := make([]int64, nb)
		dstG := make([]int64, nb)
		foldStripesAVX2(&dstA[0], &binsA[0], int64(nb))
		foldStripesGeneric(dstG, binsG)
		for i := range dstA {
			if dstA[i] != dstG[i] {
				t.Fatalf("nb=%d dst[%d]: asm %d, generic %d", nb, i, dstA[i], dstG[i])
			}
		}
		for i := range binsA {
			if binsA[i] != 0 || binsG[i] != 0 {
				t.Fatalf("nb=%d stripe %d not zeroed (asm %d, generic %d)", nb, i, binsA[i], binsG[i])
			}
		}
	}
}

// FuzzAsmKernelDifferential feeds arbitrary byte strings, reinterpreted as
// float64 streams, through the assembly and generic superaccumulator lanes
// and requires bit-identical canonical sums, errors, and watermarks. The
// CI fuzz smoke runs this continuously for a short budget; local `go test
// -fuzz` explores further.
func FuzzAsmKernelDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})                         // 1.0
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8}) // +Inf then noise
	seed := make([]byte, 8*37)
	r := rand.New(rand.NewSource(23))
	for i := range seed {
		seed[i] = byte(r.Intn(256))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !useAVX2() {
			t.Skip("AVX2 lane unavailable")
		}
		xs := make([]float64, 0, len(raw)/8+1)
		for len(raw) >= 8 {
			bits := uint64(raw[0]) | uint64(raw[1])<<8 | uint64(raw[2])<<16 | uint64(raw[3])<<24 |
				uint64(raw[4])<<32 | uint64(raw[5])<<40 | uint64(raw[6])<<48 | uint64(raw[7])<<56
			xs = append(xs, math.Float64frombits(bits))
			raw = raw[8:]
		}
		for _, p := range []Params{Params128, Params384} {
			prev := SetAsmEnabled(true)
			asm := NewSuper(p)
			SetAsmEnabled(false)
			gen := NewSuper(p)
			SetAsmEnabled(prev)
			asm.AddSlice(xs)
			gen.AddSlice(xs)
			if asm.lo != gen.lo || asm.hi != gen.hi {
				t.Fatalf("%s watermark: asm [%d,%d] generic [%d,%d]", p, asm.lo, asm.hi, gen.lo, gen.hi)
			}
			if (asm.Err() == nil) != (gen.Err() == nil) {
				t.Fatalf("%s error: asm %v generic %v", p, asm.Err(), gen.Err())
			}
			if !asm.Sum().Equal(gen.Sum()) {
				t.Fatalf("%s sum: asm %s generic %s", p, asm.Sum(), gen.Sum())
			}
		}
	})
}
