package core

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file implements the exponent-indexed superaccumulator frontend, in
// the spirit of Neal's small superaccumulator (arXiv:1505.05571) and the
// "procrastination" accumulators of Liguori et al. (arXiv:2406.05866). The
// canonical accumulator (Accumulator.Add) places every value as a two-limb
// window — shift, mask, conditional negate, two 64-bit adds with carry,
// and a carry ripple — and the window adds for same-magnitude streams
// serialize on the same limb words. The superaccumulator procrastinates:
// values are binned by their raw float64 exponent, and an add is ONE
// signed 64-bit integer add into the bin the exponent selects —
//
//	bins[e] += ±(significand of x)
//
// — no shift, no carry, no window. A 53-bit significand leaves 10 bits of
// headroom in an int64 bin, so 2^10 adds are absorbed before any bin could
// overflow; a counted Spill then folds each touched bin into the canonical
// HP representation (bin * 2^(e-1075), an exact scaled add mod 2^(64N))
// and zeroes the bins.
//
// Exactness and order-invariance: every fast-path add changes exactly one
// bin by the value's exact scaled-integer significand, bin adds commute,
// and Spill adds sum_e bins[e]*2^(e-1075+64K) into the canonical limbs —
// the identity on the represented value mod 2^(64N). The canonical state
// after Spill therefore equals the fused sequential sum bit for bit
// regardless of spill placement (proved by TestPropSuperMatchesFused,
// golden vectors, and FuzzSuperSpillDifferential).

// MaxSuperAdds is the number of adds a SuperAccumulator absorbs between
// spills. Each fast-path add contributes a signed significand of magnitude
// at most 2^53 - 1 to exactly one bin stripe, so after A adds the absolute
// values across all stripes of a bin sum to at most A*(2^53 - 1), which
// stays below the int64 capacity 2^63 for every A <= 2^10 — the stripe sum
// the spill computes therefore cannot overflow either. AddSlice amortizes
// the bound over whole chunks.
const MaxSuperAdds = 1 << 10

// superStripes is the number of independent int64 lanes interleaved per
// exponent bin: bins[superStripes*i + lane]. The scalar paths always add
// into lane 0; the AVX2 front loop maps its four vector lanes onto the
// four stripes, so a run of same-exponent values lands on four independent
// store-forwarding chains instead of serializing on one memory word —
// same-magnitude streams are the common case (any well-scaled workload)
// and the dependent add-to-memory latency is what bounds the scalar loop.
// Spill sums the stripes of each touched bin before folding; integer
// addition commutes, so striping is invisible in the canonical result.
const superStripes = 4

// SuperAccumulator sums float64 values into an HP number through the
// exponent-indexed superaccumulator frontend: one indexed 64-bit add per
// value, carries deferred wholesale until a counted Spill folds the bins
// into the canonical representation. It is the fastest serial hot loop in
// the package (BENCH_sum.json workload "serial-super") and the default
// per-worker partial for the parallel reductions.
//
// Relative to Accumulator: conversion range errors (NaN/Inf, overflow,
// underflow of an input element) are detected identically, per element,
// and recorded as the same sticky first error; signed-overflow wraps are
// not observable per add (the accumulator operates exactly mod 2^(64N),
// like Accumulator.AllowWrap), and reductions apply the sign rule at their
// deterministic combine points via MergeChecked.
//
// A SuperAccumulator is not safe for concurrent use; give each goroutine
// its own and combine with Merge or MergeChecked.
type SuperAccumulator struct {
	p Params
	// bins holds superStripes interleaved signed lanes per in-gate biased
	// exponent: the stripes of bin i are bins[superStripes*i .. +3], and
	// their sum is the signed total of the 53-bit significands of every
	// fast-path value with biased exponent eMin+i since the last spill.
	// len(bins) == superStripes*nbins.
	bins []int64
	// nbins == eSpan+1 is the exponent-bin count, the gate bound the hot
	// loops compare against.
	nbins int
	// fold is the per-spill stripe-sum scratch (nbins entries), reused so
	// Spill stays allocation-free.
	fold []int64
	// lo..hi is the touched-bin watermark in exponent-bin space: Spill
	// walks only this range, so well-scaled streams (a narrow band of
	// exponents) pay a short fold no matter how wide the format's gate is.
	// lo > hi means no bin touched.
	lo, hi int
	// avx2 freezes the front-loop dispatch decision at construction: true
	// selects the AVX2 assembly chunk loop (amd64, !purego, feature probe
	// and kill switches permitting), false the generic Go loop.
	avx2 bool
	// room counts adds until the next forced spill; bounded by spillEvery.
	room       uint64
	spillEvery uint64 // normally MaxSuperAdds; lowered in tests
	// Fast-path gate, identical to Accumulator's: a biased exponent e
	// with uint(e-eMin) <= uint(eSpan) is a nonzero normal float64 whose
	// significand provably fits the format. Everything else (zeros,
	// subnormals, NaN/Inf, range faults) takes the decomposeFloat64 slow
	// path, preserving error identity with the fused kernel.
	eMin, eSpan int
	sBias       int // s = e + sBias is the bit offset of the significand
	sum         *HP // canonical accumulated value; bins are deltas onto it
	kern        *limbKernel
	err         error
	mag         []uint64 // magnitude scratch for Float64, reused across calls
}

// NewSuper returns a zeroed superaccumulator with the given parameters. It
// panics if p is invalid; use Params.Validate to check first. When the
// format matches a shipped width, the unrolled limb kernel is selected for
// the full-width fold and merge loops.
func NewSuper(p Params) *SuperAccumulator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := &SuperAccumulator{
		p:          p,
		spillEvery: MaxSuperAdds,
		room:       MaxSuperAdds,
		sBias:      64*p.K - 1075,
		sum:        New(p),
		kern:       kernelFor(p),
		mag:        make([]uint64, p.N),
	}
	s.eMin, s.eSpan = gateBounds(p)
	s.nbins = s.eSpan + 1
	s.bins = make([]int64, superStripes*s.nbins)
	s.fold = make([]int64, s.nbins)
	s.lo, s.hi = s.nbins, -1
	s.avx2 = useAVX2()
	return s
}

// gateBounds computes the [eMin, eMin+eSpan] biased-exponent window whose
// normal float64s provably fit format p: s = e + 64K - 1075 >= 0 keeps the
// significand wholly above the fractional cutoff, and 53+s <= 64N-1 keeps
// its 53 bits inside the signed range. For every Validate-accepted format
// the window is nonempty (eSpan >= 0, see TestGateBoundsNonNegative); if a
// degenerate format ever produced eSpan < 0 the gate is clamped closed —
// an unsigned compare against a negative span would otherwise accept every
// exponent and index outside the bins.
func gateBounds(p Params) (eMin, eSpan int) {
	eMin = max(1, 1075-64*p.K)
	eSpan = min(2046, 64*p.N-54+1075-64*p.K) - eMin
	if eSpan < 0 {
		return 1 << 30, 0 // e - eMin is always negative: nothing passes
	}
	return eMin, eSpan
}

// Params returns the accumulator's HP parameters.
func (s *SuperAccumulator) Params() Params { return s.p }

// Err returns the first conversion range error (NaN/Inf, overflow,
// underflow), or nil. Signed-overflow wraps are not errors; see the type
// comment.
func (s *SuperAccumulator) Err() error { return s.err }

// Reset zeroes the accumulator and clears the sticky error.
func (s *SuperAccumulator) Reset() {
	if s.hi >= s.lo {
		clear(s.bins[superStripes*s.lo : superStripes*(s.hi+1)])
	}
	s.lo, s.hi = s.nbins, -1
	s.room = s.spillEvery
	s.sum.SetZero()
	s.err = nil
}

// Add adds one value through the superaccumulator frontend. For long
// inputs prefer AddSlice, which amortizes the spill bound over the slice.
func (s *SuperAccumulator) Add(x float64) {
	if s.room == 0 {
		s.Spill()
	}
	s.room--
	bv := math.Float64bits(x)
	i := int(bv>>52&0x7ff) - s.eMin
	if uint(i) >= uint(s.nbins) {
		s.addSlow(x)
		return
	}
	m := int64(bv&(1<<52-1) | 1<<52)
	sm := int64(bv) >> 63
	s.bins[superStripes*i] += (m ^ sm) - sm
	if i < s.lo {
		s.lo = i
	}
	if i > s.hi {
		s.hi = i
	}
}

// AddSlice adds every element of xs — the superaccumulator hot loop.
// Conversion range errors set the sticky error and skip the offending
// element, exactly as Accumulator.AddAll does.
func (s *SuperAccumulator) AddSlice(xs []float64) {
	if telemetry.Enabled() {
		mSuperAdds.Add(uint64(len(xs)))
	}
	for len(xs) > 0 {
		n := s.reserve(len(xs))
		s.addChunk(xs[:n])
		xs = xs[n:]
	}
}

// AddFloat64sBE adds a float64 wire payload — 8-byte big-endian IEEE-754
// bit patterns, the encoding of internal/wire — straight from its bytes:
// each value is byte-swapped as it is loaded, so no []float64 copy
// exists. Bins, watermarks, spill points and the sticky error are
// bit-identical to AddSlice over the decoded values. It panics if len(p)
// is not a multiple of 8; callers validate payloads before folding them.
func (s *SuperAccumulator) AddFloat64sBE(p []byte) {
	if len(p)%8 != 0 {
		panic("core: AddFloat64sBE payload is not a whole number of float64s")
	}
	if telemetry.Enabled() {
		mSuperAdds.Add(uint64(len(p) / 8))
	}
	for len(p) > 0 {
		n := s.reserve(len(p) / 8)
		s.addChunkBE(p[:8*n])
		p = p[8*n:]
	}
}

// reserve claims room for up to n adds, spilling first if the bins are
// full, and returns how many it claimed: the chunk the caller may add
// before the next spill.
func (s *SuperAccumulator) reserve(n int) int {
	if s.room == 0 {
		s.Spill()
	}
	k := min(uint64(n), s.room)
	s.room -= k
	return int(k)
}

// addChunk dispatches the inner loop: the AVX2 assembly lane when the
// construction-time probe selected it, the generic Go loop otherwise.
// Both produce identical bins, watermarks, and sticky errors — proven by
// the asm differential tests and FuzzAsmKernelDifferential.
func (s *SuperAccumulator) addChunk(xs []float64) {
	if s.avx2 {
		s.addChunkAsm(xs)
		return
	}
	s.addChunkGeneric(xs)
}

// addChunkBE is addChunk over a big-endian payload.
func (s *SuperAccumulator) addChunkBE(p []byte) {
	if s.avx2 {
		s.addChunkAsmBE(p)
		return
	}
	s.addChunkGenericBE(p)
}

// addChunkGeneric is the portable indexed inner loop: per element, one
// exponent extract, one gate compare, a branchless signed-significand
// build, and a single int64 add into stripe 0 of the selected bin. The
// watermark updates are predictable (almost never taken once the stream's
// exponent band is established).
func (s *SuperAccumulator) addChunkGeneric(xs []float64) {
	bins := s.bins
	nb := s.nbins
	eMin := s.eMin
	lo, hi := s.lo, s.hi
	for _, x := range xs {
		bv := math.Float64bits(x)
		i := int(bv>>52&0x7ff) - eMin
		if uint(i) >= uint(nb) {
			s.addSlow(x)
			continue
		}
		m := int64(bv&(1<<52-1) | 1<<52)
		sm := int64(bv) >> 63
		bins[superStripes*i] += (m ^ sm) - sm
		if i < lo {
			lo = i
		}
		if i > hi {
			hi = i
		}
	}
	s.lo, s.hi = lo, hi
}

// addChunkGenericBE is addChunkGeneric reading big-endian bit patterns.
func (s *SuperAccumulator) addChunkGenericBE(p []byte) {
	bins := s.bins
	nb := s.nbins
	eMin := s.eMin
	lo, hi := s.lo, s.hi
	for ; len(p) >= 8; p = p[8:] {
		bv := binary.BigEndian.Uint64(p)
		i := int(bv>>52&0x7ff) - eMin
		if uint(i) >= uint(nb) {
			s.addSlow(math.Float64frombits(bv))
			continue
		}
		m := int64(bv&(1<<52-1) | 1<<52)
		sm := int64(bv) >> 63
		bins[superStripes*i] += (m ^ sm) - sm
		if i < lo {
			lo = i
		}
		if i > hi {
			hi = i
		}
	}
	s.lo, s.hi = lo, hi
}

// addSlow handles everything the gate rejects: zeros (no-ops), subnormals
// and out-of-band normals (via decomposeFloat64, so acceptance and error
// identity match the fused path exactly), and NaN/Inf/range faults (sticky
// error, accumulator untouched). Accepted slow-path windows fold straight
// into the canonical limbs — full-width adds commute with the deferred
// bins, so interleaving preserves the represented value.
func (s *SuperAccumulator) addSlow(x float64) {
	if x == 0 {
		return
	}
	d, err := decomposeFloat64(s.p, x)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	if d.neg {
		s.sum.subSparse(d)
	} else {
		s.sum.addSparse(d)
	}
}

// Spill folds every touched bin into the canonical limbs and zeroes it:
// the stripes of bin i sum (overflow-free, by the MaxSuperAdds bound) to
// an exact signed 64-bit total of significands at scale 2^(eMin+i-1075),
// which lands as a two-limb window at bit offset s = eMin+i+sBias — the
// same window shape as the fused kernel, with the carry or borrow
// propagated only while nonzero and wrapped past the top limb exactly as
// full-width addition would. The stripe sums are computed (and the
// stripes zeroed) by a single foldStripes pass over the watermarked range
// — vectorized on the AVX2 lane — before the scalar window folds. A spill
// with no touched bins is a cheap no-op, so canonicalization points may
// call it freely.
func (s *SuperAccumulator) Spill() {
	s.room = s.spillEvery
	if s.hi < s.lo {
		return
	}
	if telemetry.Enabled() {
		mSuperSpills.Inc()
	}
	lo := s.lo
	fold := s.fold[lo : s.hi+1]
	s.foldStripes(fold, s.bins[superStripes*lo:superStripes*(s.hi+1)])
	for j, b := range fold {
		if b == 0 {
			continue
		}
		sv := lo + j + s.eMin + s.sBias
		neg := b < 0
		mag := uint64(b)
		if neg {
			mag = uint64(-b)
		}
		off := uint(sv) & 63
		d := limbDelta{
			idx: s.p.N - 1 - sv>>6,
			lo:  mag << off,
			hi:  mag >> (64 - off), // off==0: shift by 64 reads as 0
			neg: neg,
		}
		if neg {
			s.sum.subSparse(d)
		} else {
			s.sum.addSparse(d)
		}
	}
	s.lo, s.hi = s.nbins, -1
}

// AddHP adds a canonical HP value (a partial sum) in wrapping mode,
// directly into the canonical limbs: full-width addition commutes with the
// deferred bins.
func (s *SuperAccumulator) AddHP(x *HP) {
	if x.p != s.p {
		if s.err == nil {
			s.err = ErrParamMismatch
		}
		return
	}
	s.addVec(x.limbs)
}

// addVec adds the big-endian limb vector into the canonical sum through
// the unrolled kernel when one is selected.
func (s *SuperAccumulator) addVec(src []uint64) {
	if s.kern != nil {
		s.kern.addVec(s.sum.limbs, src)
		return
	}
	var c uint64
	for i := s.p.N - 1; i >= 0; i-- {
		s.sum.limbs[i], c = bits.Add64(s.sum.limbs[i], src[i], c)
	}
}

// Merge folds another superaccumulator's partial sum into s, propagating
// its sticky error — the combine step when per-worker partials reduce into
// a final result.
func (s *SuperAccumulator) Merge(from *SuperAccumulator) {
	if from.err != nil && s.err == nil {
		s.err = from.err
	}
	if from.p != s.p {
		if s.err == nil {
			s.err = ErrParamMismatch
		}
		return
	}
	from.Spill()
	s.addVec(from.sum.limbs)
}

// MergeChecked is Merge with the paper's sign-rule overflow test applied
// at the combine: both sides are spilled to canonical form first, and if
// the two partials agree in sign while their sum's sign differs, the
// combined value exceeded the representable range and ErrOverflow is
// recorded (sticky, after any earlier error from either side). Reductions
// use this so overflow is decided at the deterministic combine points.
func (s *SuperAccumulator) MergeChecked(from *SuperAccumulator) {
	if from.err != nil && s.err == nil {
		s.err = from.err
	}
	if from.p != s.p {
		if s.err == nil {
			s.err = ErrParamMismatch
		}
		return
	}
	s.Spill()
	from.Spill()
	s0, s1 := s.sum.limbs[0]>>63, from.sum.limbs[0]>>63
	s.addVec(from.sum.limbs)
	if s0 == s1 && s.sum.limbs[0]>>63 != s0 && s.err == nil {
		mOverflow.Inc()
		coreFlight.Event("overflow", trace.Str("op", "super-merge-checked"))
		s.err = ErrOverflow
	}
}

// Sum spills and returns the canonical HP sum. The returned value is owned
// by s and mutated by further adds; Clone it to keep a copy.
func (s *SuperAccumulator) Sum() *HP {
	s.Spill()
	return s.sum
}

// Float64 spills and returns the running sum rounded to float64 (round to
// nearest, ties to even), through a reused magnitude buffer so rounding
// loops do not allocate.
func (s *SuperAccumulator) Float64() float64 {
	s.Spill()
	return limbsToFloat64(s.sum.limbs, s.p.K, s.mag)
}
