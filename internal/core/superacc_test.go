package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
)

// TestPropSuperMatchesFused: from arbitrary starting states and value
// streams spanning the format range, the exponent-indexed superaccumulator
// produces limbs bit-identical to the fused sparse kernel, with the same
// sticky error identity, across every format shape — including with the
// spill bound lowered so bins fold mid-stream.
func TestPropSuperMatchesFused(t *testing.T) {
	for _, p := range batchFormats {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for trial := uint64(0); trial < 20; trial++ {
				start := mixedLimbs(p, trial*977+13)
				xs := batchValues(p, trial, 500)

				oracle := start.Clone()
				wantErr := addBatchOracle(oracle, xs)

				s := NewSuper(p)
				if trial%3 == 1 {
					s.spillEvery = 1 + trial%17 // force frequent spills
					s.room = s.spillEvery
				}
				s.AddHP(start)
				s.AddSlice(xs)
				if gotErr := s.Err(); gotErr != wantErr {
					t.Fatalf("trial %d: err %v, want %v", trial, gotErr, wantErr)
				}
				if got := s.Sum(); !got.Equal(oracle) {
					t.Fatalf("trial %d: limbs diverged\nsuper %016x\nfused %016x",
						trial, got.Limbs(), oracle.Limbs())
				}
			}
		})
	}
}

// TestPropSuperOrderInvariance: the canonical sum is identical no matter
// where Spill falls or how the stream is sliced or shuffled — every
// decomposition of the same stream yields the same bits.
func TestPropSuperOrderInvariance(t *testing.T) {
	p := Params384
	xs := batchValues(p, 99, 2000)
	ref := NewSuper(p)
	ref.AddSlice(xs)
	want := ref.Sum().Clone()

	// The canonical accumulator agrees on the same stream, so both
	// accumulators are interchangeable.
	a := NewAccumulator(p).AllowWrap()
	a.AddAll(xs)
	if !a.Sum().Equal(want) {
		t.Fatal("super and canonical accumulators disagree on the same stream")
	}

	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		s := NewSuper(p)
		rest := xs
		for len(rest) > 0 {
			n := 1 + r.Intn(len(rest))
			s.AddSlice(rest[:n])
			rest = rest[n:]
			if r.Intn(2) == 0 {
				s.Spill()
			}
		}
		if got := s.Sum(); !got.Equal(want) {
			t.Fatalf("trial %d: spill placement changed the sum\ngot  %016x\nwant %016x",
				trial, got.Limbs(), want.Limbs())
		}
	}

	shuffled := append([]float64(nil), xs...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	s := NewSuper(p)
	s.AddSlice(shuffled)
	if got := s.Sum(); !got.Equal(want) {
		t.Fatal("shuffled stream changed the sum")
	}
}

// TestSuperSpillBound: AddSlice never exceeds the counted spill bound, and
// a worst-case stream — every value same sign, same exponent, maximal
// significand, hammering one bin — stays exact through forced spills at
// the MaxSuperAdds boundary and at saturating lowered bounds.
func TestSuperSpillBound(t *testing.T) {
	p := Params384
	// Maximal significand at a fixed exponent: the per-bin magnitude grows
	// by just under 2^53 per add, the worst case for the int64 bins.
	worst := make([]float64, 3*MaxSuperAdds+17)
	for i := range worst {
		worst[i] = -math.Ldexp(float64((1<<53)-1), -53+40)
	}
	oracle := New(p)
	if err := addBatchOracle(oracle, worst); err != nil {
		t.Fatal(err)
	}
	for _, every := range []uint64{1, 2, 3, 7, MaxSuperAdds} {
		s := NewSuper(p)
		s.spillEvery = every
		s.room = every
		s.AddSlice(worst)
		if s.room > every {
			t.Fatalf("spillEvery %d: room %d exceeds bound", every, s.room)
		}
		if got := s.Sum(); !got.Equal(oracle) {
			t.Fatalf("spillEvery %d: worst-case stream diverged", every)
		}
	}

	// The bin bound itself: MaxSuperAdds maximal significands cannot
	// overflow an int64 bin. (Compile-time arithmetic, pinned here so the
	// constant can never be raised past the proof.)
	if maxBin := uint64(MaxSuperAdds) * ((1 << 53) - 1); maxBin >= 1<<63 {
		t.Fatalf("MaxSuperAdds %d overflows the int64 bin bound: %d", MaxSuperAdds, maxBin)
	}
}

// TestSuperWatermark: Spill walks only the touched bin range — a
// well-scaled stream leaves the watermark narrow, and Spill resets it.
func TestSuperWatermark(t *testing.T) {
	p := Params384
	s := NewSuper(p)
	if s.hi >= s.lo {
		t.Fatal("fresh accumulator claims touched bins")
	}
	s.Add(1.0)
	s.Add(2.0)
	s.Add(0.5)
	if s.hi < s.lo {
		t.Fatal("adds did not move the watermark")
	}
	if width := s.hi - s.lo + 1; width > 3 {
		t.Fatalf("three adjacent exponents touched %d bins", width)
	}
	s.Spill()
	if s.hi >= s.lo {
		t.Fatal("Spill did not reset the watermark")
	}
	for _, b := range s.bins {
		if b != 0 {
			t.Fatal("Spill left a nonzero bin")
		}
	}
	if got := s.Float64(); got != 3.5 {
		t.Fatalf("sum = %g, want 3.5", got)
	}
}

// TestSuperMerge: Merge equals AddHP of the spilled partial and propagates
// the sticky error, so parallel combines are exact.
func TestSuperMerge(t *testing.T) {
	p := Params384
	xs := batchValues(p, 3, 1000)
	whole := NewSuper(p)
	whole.AddSlice(xs)

	a := NewSuper(p)
	c := NewSuper(p)
	a.AddSlice(xs[:371])
	c.AddSlice(xs[371:])
	a.Merge(c)
	if !a.Sum().Equal(whole.Sum()) {
		t.Fatal("merged partials differ from the whole")
	}

	bad := NewSuper(p)
	bad.AddSlice([]float64{math.NaN()})
	a.Merge(bad)
	if a.Err() != ErrNotFinite {
		t.Fatalf("Merge did not propagate sticky error: %v", a.Err())
	}
	mismatched := NewSuper(Params128)
	fresh := NewSuper(p)
	fresh.Merge(mismatched)
	if fresh.Err() != ErrParamMismatch {
		t.Fatalf("param mismatch err = %v", fresh.Err())
	}
}

// TestSuperMergeChecked: the checked combine matches Merge bit-for-bit
// when in range and records ErrOverflow exactly when two same-signed
// canonical partials produce an opposite-signed sum.
func TestSuperMergeChecked(t *testing.T) {
	p := Params384
	xs := batchValues(p, 4, 1000)
	whole := NewSuper(p)
	whole.AddSlice(xs)
	a := NewSuper(p)
	c := NewSuper(p)
	a.AddSlice(xs[:619])
	c.AddSlice(xs[619:])
	a.MergeChecked(c)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if !a.Sum().Equal(whole.Sum()) {
		t.Fatal("checked merge differs from the whole")
	}

	pp := Params{N: 2, K: 1}
	big := math.Ldexp(1, 62)
	u := NewSuper(pp)
	v := NewSuper(pp)
	u.Add(big)
	v.Add(big)
	u.MergeChecked(v)
	if u.Err() != ErrOverflow {
		t.Fatalf("overflowing combine err = %v, want ErrOverflow", u.Err())
	}

	u2 := NewSuper(pp)
	v2 := NewSuper(pp)
	u2.Add(big)
	v2.Add(-big)
	u2.MergeChecked(v2)
	if u2.Err() != nil || u2.Float64() != 0 {
		t.Fatalf("cancelling combine: err=%v sum=%g", u2.Err(), u2.Float64())
	}
}

// TestSuperErrors: conversion faults are sticky (first wins), identical in
// identity to the fused path, and never corrupt the running sum; Reset
// restores a zeroed accumulator.
func TestSuperErrors(t *testing.T) {
	p := Params128
	s := NewSuper(p)
	s.AddSlice([]float64{1.5, math.Inf(1), math.NaN(), 1e300, 0.25})
	if s.Err() != ErrNotFinite {
		t.Fatalf("sticky err = %v, want first ErrNotFinite", s.Err())
	}
	oracle := New(p)
	oracle.AddFloat64(1.5)
	oracle.AddFloat64(0.25)
	if !s.Sum().Equal(oracle) {
		t.Fatal("faulting elements corrupted the sum")
	}

	s.Reset()
	if s.Err() != nil || !s.Sum().IsZero() {
		t.Fatal("Reset did not clear state")
	}
	s.AddSlice([]float64{1e300})
	if s.Err() != ErrOverflow {
		t.Fatalf("overflow err = %v", s.Err())
	}
	s.Reset()
	s.AddSlice([]float64{math.Ldexp(1, -100)}) // below 2^-64 resolution
	if s.Err() != ErrUnderflow {
		t.Fatalf("underflow err = %v", s.Err())
	}
}

// TestSuperAddSliceZeroAlloc: the hot loop and its canonicalization points
// are allocation-free in steady state.
func TestSuperAddSliceZeroAlloc(t *testing.T) {
	xs := rng.UniformSet(rng.New(21), 4096, -0.5, 0.5)
	s := NewSuper(Params384)
	s.AddSlice(xs)
	_ = s.Sum()
	if avg := testing.AllocsPerRun(100, func() {
		s.AddSlice(xs)
		s.Spill()
		_ = s.Float64()
		_ = s.Sum()
	}); avg != 0 {
		t.Errorf("super hot loop allocates %.2f objects per pass", avg)
	}
}

// TestSuperGoldenUniformSum: the superaccumulator reproduces the
// repository's pinned reproducibility certificate — the same limbs the
// fused kernel and Accumulator produce for the canonical uniform workload.
func TestSuperGoldenUniformSum(t *testing.T) {
	xs := rng.UniformSet(rng.New(2016), 100000, -0.5, 0.5)
	s := NewSuper(Params384)
	s.AddSlice(xs)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	got := fmt.Sprintf("%016x", s.Sum().Limbs())
	const want = "[0000000000000000 0000000000000000 0000000000000097 d2fb6ee2a75a8000 0000000000000000 0000000000000000]"
	if got != want {
		t.Errorf("super golden uniform sum drifted:\n got %s\nwant %s", got, want)
	}
}

// binTotal sums the interleaved stripes of bin i — the deferred signed
// significand total regardless of which lane (scalar stripe 0, or any AVX2
// lane) the adds landed in.
func binTotal(s *SuperAccumulator, i int) int64 {
	var t int64
	for l := 0; l < superStripes; l++ {
		t += s.bins[superStripes*i+l]
	}
	return t
}

// TestSuperGoldenBins pins the deferred representation itself: a fast-path
// add must land as a signed significand in the bin its raw exponent
// selects, leaving the canonical limbs untouched until Spill.
func TestSuperGoldenBins(t *testing.T) {
	p := Params384
	s := NewSuper(p)
	one := math.Float64bits(1.0)
	eOne := int(one >> 52 & 0x7ff) // 1023
	s.Add(1.0)
	s.Add(1.0)
	s.Add(-0.5)
	if !s.sum.IsZero() {
		t.Fatal("fast-path adds touched the canonical limbs before Spill")
	}
	if got := binTotal(s, eOne-s.eMin); got != 2<<52 {
		t.Fatalf("bin[1.0] = %d, want %d", got, int64(2)<<52)
	}
	if got := binTotal(s, eOne-1-s.eMin); got != -(1 << 52) {
		t.Fatalf("bin[0.5] = %d, want %d", got, -(int64(1) << 52))
	}
	if got := s.Float64(); got != 1.5 {
		t.Fatalf("sum = %g, want 1.5", got)
	}
}
