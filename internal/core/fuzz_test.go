package core

import (
	"math"
	"testing"

	"repro/internal/exact"
)

// Native Go fuzz targets. `go test` runs them over the seed corpus; `go
// test -fuzz=FuzzX ./internal/core` explores further. Each target encodes
// an invariant that must hold for arbitrary float64 bit patterns.

func seedFloats(f *testing.F) {
	for _, v := range []float64{
		0, 1, -1, 0.5, 0.1, -0.001, 1e15, -1e15,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Ldexp(1, 62), math.Ldexp(1, -64), math.Ldexp(-1.5, -60),
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(v)
	}
}

// FuzzRoundTrip: SetFloat64 either rejects a value or stores it exactly.
func FuzzRoundTrip(f *testing.F) {
	seedFloats(f)
	f.Fuzz(func(t *testing.T, x float64) {
		z := New(Params512)
		err := z.SetFloat64(x)
		if err != nil {
			if !z.IsZero() {
				t.Fatal("receiver not zeroed after rejection")
			}
			return
		}
		if got := z.Float64(); got != x {
			t.Fatalf("round trip %g -> %g", x, got)
		}
		// Exactness stronger than Float64 equality: the stored rational
		// equals the input's rational value.
		o := exact.New()
		o.Add(x)
		if z.Rat().Cmp(o.Rat()) != 0 {
			t.Fatalf("stored value of %g not exact", x)
		}
	})
}

// FuzzListing1Agreement: the paper's conversion loop and the exact bit
// decomposition accept the same inputs and produce identical limbs.
func FuzzListing1Agreement(f *testing.F) {
	seedFloats(f)
	f.Fuzz(func(t *testing.T, x float64) {
		a := New(Params384)
		b := New(Params384)
		errA := a.SetFloat64(x)
		errB := b.SetFloat64Listing1(x)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("acceptance differs for %g: %v vs %v", x, errA, errB)
		}
		if errA == nil && !a.Equal(b) {
			t.Fatalf("limbs differ for %g", x)
		}
	})
}

// FuzzAddMatchesOracle: x + y in HP equals the exact rational sum whenever
// both convert.
func FuzzAddMatchesOracle(f *testing.F) {
	f.Add(1.5, -0.25)
	f.Add(0.1, 0.2)
	f.Add(1e15, 1e-15)
	f.Add(-math.Ldexp(1, 60), math.Ldexp(1, 60))
	f.Fuzz(func(t *testing.T, x, y float64) {
		a := New(Params512)
		b := New(Params512)
		if a.SetFloat64(x) != nil || b.SetFloat64(y) != nil {
			return
		}
		if overflow := a.Add(b); overflow {
			return // wrapped by design; exactness claim void
		}
		o := exact.New()
		o.AddAll([]float64{x, y})
		if a.Rat().Cmp(o.Rat()) != 0 {
			t.Fatalf("%g + %g inexact", x, y)
		}
	})
}

// FuzzProductPaths: the TwoProduct and Kulisch product paths agree with
// the exact rational product wherever they accept the inputs.
func FuzzProductPaths(f *testing.F) {
	f.Add(1.5, -2.25)
	f.Add(0.1, 0.1)
	f.Add(1e20, 1e-20)
	f.Fuzz(func(t *testing.T, x, y float64) {
		acc := NewAccumulator(Params512)
		acc.AddProductExact(x, y)
		if acc.Err() != nil {
			return
		}
		want := exact.New()
		p, e, err := TwoProduct(x, y)
		if err == nil {
			want.AddAll([]float64{p, e})
			if acc.Sum().Rat().Cmp(want.Rat()) != 0 {
				t.Fatalf("product paths disagree for %g * %g", x, y)
			}
		}
	})
}

// FuzzFusedAddDifferential: the fused sparse AddFloat64 must be
// bit-identical to the paper's published path — the Listing 1 conversion
// loop followed by the Listing 2 comparison-based full-width add —
// starting from an arbitrary accumulator state: same acceptance, same
// limbs, same signed-overflow verdict, and an untouched receiver on
// rejection.
func FuzzFusedAddDifferential(f *testing.F) {
	f.Add(uint64(0), 0.5)
	f.Add(uint64(1), -0.1)
	f.Add(uint64(0xfff), 1e15)
	f.Add(^uint64(0), -math.Ldexp(1, 62))
	f.Add(uint64(42), math.Ldexp(1, -64))
	f.Add(uint64(7), math.MaxFloat64)
	f.Add(uint64(7), math.Inf(1))
	f.Fuzz(func(t *testing.T, seed uint64, x float64) {
		p := Params384
		fused := mixedLimbs(p, seed)
		oracle := fused.Clone()
		before := fused.Clone()
		scratch := New(p)
		errO := scratch.SetFloat64Listing1(x)
		ovF, errF := fused.AddFloat64(x)
		if (errF == nil) != (errO == nil) {
			t.Fatalf("acceptance differs for %g: fused %v, listing1 %v", x, errF, errO)
		}
		if errF != nil {
			if !fused.Equal(before) {
				t.Fatalf("rejected AddFloat64(%g) modified the receiver", x)
			}
			return
		}
		ovO := oracle.AddListing2(scratch)
		if ovF != ovO {
			t.Fatalf("overflow verdict differs for %g: fused %v, listing2 %v", x, ovF, ovO)
		}
		if !fused.Equal(oracle) {
			t.Fatalf("limbs differ after adding %g:\nfused   %016x\nlisting %016x",
				x, fused.Limbs(), oracle.Limbs())
		}
	})
}

// FuzzAddRoundDifferential: the canonical per-element rebuild primitive,
// Accumulator.AddRound, must be bit-identical to an independent spelling —
// the fused kernel's HP.AddFloat64 followed by Float64 — in rounded value,
// overflow verdict, sticky error identity, and final canonical limbs, from
// arbitrary accumulator states. Its gated window add and hand-rolled ±1
// carry ripple (the idx >= 2 walk, the idx <= 1 wraps past the top limb)
// are the path scan phase 2 runs for every element.
func FuzzAddRoundDifferential(f *testing.F) {
	f.Add(uint64(0), 0.5, -0.25, uint8(0))
	f.Add(uint64(1), -0.1, 0.1, uint8(1))
	f.Add(uint64(0xfff), 1e15, -1e15, uint8(2))
	f.Add(^uint64(0), -math.Ldexp(1, 62), math.Ldexp(1, 62), uint8(3))
	f.Add(uint64(42), math.Ldexp(1, -64), 1.0, uint8(0))
	f.Add(uint64(7), math.MaxFloat64, math.Inf(1), uint8(1))
	f.Add(uint64(9), math.NaN(), math.Ldexp(1.5, -60), uint8(2))
	f.Add(uint64(3), math.Ldexp(1, -128), -math.Ldexp(1, -128), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, x, y float64, mode uint8) {
		// Sweep formats so every idx class is reachable: deep windows
		// (idx >= 2, the carry ripple), top-of-format windows (idx <= 1,
		// the wrap paths), and a generic width with no unrolled kernel.
		formats := []Params{Params384, {N: 2, K: 1}, {N: 3, K: 3}, {N: 5, K: 2}}
		p := formats[mode%4]
		start := mixedLimbs(p, seed)

		acc := NewAccumulator(p).AllowWrap()
		acc.AddHP(start)
		plain := start.Clone()
		var plainErr error

		for _, v := range []float64{x, y} {
			gotOut, gotOv := acc.AddRound(v)
			wantOv, err := plain.AddFloat64(v)
			if err != nil && plainErr == nil {
				plainErr = err
			}
			wantOut := plain.Float64()
			if math.Float64bits(gotOut) != math.Float64bits(wantOut) {
				t.Fatalf("rounded value differs after %g: AddRound %x (%g), fused %x (%g)",
					v, math.Float64bits(gotOut), gotOut, math.Float64bits(wantOut), wantOut)
			}
			if gotOv != wantOv {
				t.Fatalf("overflow verdict differs after %g: AddRound %v, fused %v", v, gotOv, wantOv)
			}
			if acc.Err() != plainErr {
				t.Fatalf("sticky err differs after %g: AddRound %v, fused %v", v, acc.Err(), plainErr)
			}
		}
		if got := acc.Sum(); !got.Equal(plain) {
			t.Fatalf("limbs differ after %g, %g:\nAddRound %016x\nfused    %016x",
				x, y, got.Limbs(), plain.Limbs())
		}
	})
}

// FuzzSuperSpillDifferential: from an arbitrary accumulator state, the
// exponent-indexed superaccumulator must match the fused sparse kernel bit
// for bit — same acceptance, same sticky-error identity, same canonical
// limbs — for any pair of values and any spill placement between them,
// including a saturated spill bound that folds the bins on every add.
func FuzzSuperSpillDifferential(f *testing.F) {
	f.Add(uint64(0), 0.5, -0.25, uint8(0))
	f.Add(uint64(1), -0.1, 0.1, uint8(1))
	f.Add(uint64(0xfff), 1e15, -1e15, uint8(2))
	f.Add(^uint64(0), -math.Ldexp(1, 62), math.Ldexp(1, 62), uint8(3))
	f.Add(uint64(42), math.Ldexp(1, -64), 1.0, uint8(4))
	f.Add(uint64(7), math.MaxFloat64, math.Inf(1), uint8(5))
	f.Add(uint64(9), math.NaN(), math.Ldexp(1.5, -60), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, x, y float64, mode uint8) {
		p := Params384
		start := mixedLimbs(p, seed)

		oracle := start.Clone()
		var wantErr error
		for _, v := range []float64{x, y} {
			if _, err := oracle.AddFloat64(v); err != nil && wantErr == nil {
				wantErr = err
			}
		}

		s := NewSuper(p)
		if mode%7 == 6 {
			s.spillEvery = 1 // saturate the spill bound on every add
			s.room = 1
		}
		s.AddHP(start)
		s.Add(x)
		switch mode % 3 {
		case 1:
			s.Spill()
		case 2:
			_ = s.Float64()
		}
		s.Add(y)
		if gotErr := s.Err(); gotErr != wantErr {
			t.Fatalf("sticky err %v, want %v (x=%g y=%g)", gotErr, wantErr, x, y)
		}
		if got := s.Sum(); !got.Equal(oracle) {
			t.Fatalf("limbs differ after %g, %g (mode %d):\nsuper %016x\nfused %016x",
				x, y, mode, got.Limbs(), oracle.Limbs())
		}
	})
}

// FuzzLimbsToFloat64Differential: the branch-light rounding fast path used
// by the per-element hot loops must agree bit-for-bit with the generic
// magnitude path on arbitrary two's-complement states, across formats whose
// ranges sit inside, straddle, and exceed float64's (exercising the
// saturation and subnormal fallbacks).
func FuzzLimbsToFloat64Differential(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), ^uint64(0))
	f.Add(uint64(42), uint64(1)<<63)
	f.Add(^uint64(0), uint64(0xfff))
	f.Fuzz(func(t *testing.T, seed, top uint64) {
		for _, p := range []Params{Params128, Params192, Params384, Params512, {N: 2, K: 0}, {N: 20, K: 17}} {
			h := mixedLimbs(p, seed)
			h.limbs[0] = top // drive the sign and leading-bit cases directly
			fast := limbsToFloat64(h.limbs, p.K, nil)
			mag := make([]uint64, p.N)
			slow := magToFloat64(mag, p.K, magnitudeInto(mag, h.limbs))
			if math.Float64bits(fast) != math.Float64bits(slow) {
				t.Fatalf("%v limbs %016x: fast %x (%g), slow %x (%g)",
					p, h.limbs, math.Float64bits(fast), fast, math.Float64bits(slow), slow)
			}
		}
	})
}

// FuzzMarshalRoundTrip: any accepted encoding decodes to identical state,
// and arbitrary byte mutations never crash the decoder.
func FuzzMarshalRoundTrip(f *testing.F) {
	good, _ := func() ([]byte, error) {
		h, err := FromFloat64(Params192, -12.375)
		if err != nil {
			return nil, err
		}
		return h.MarshalBinary()
	}()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h HP
		if err := h.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(data) {
			t.Fatalf("re-encoding differs: %x vs %x", out, data)
		}
	})
}
