package core

import (
	"math"
	"testing"
)

// Table-driven boundary tests for the eMin/eSpan fast-path gate shared by
// Accumulator and SuperAccumulator. The gate classifies a float64 by its
// raw biased exponent with a single unsigned compare; these tests pin its
// edges — the exponents just inside and just outside the window, the
// limb-aligned offsets where the window's high word relies on Go's shift
// semantics (m >> 64 == 0), subnormals, signed zeros — and assert every
// case bit-identical to the fused AddFloat64 path, for both accumulators,
// on every format shape.

// gateBoundaryValues builds the boundary stream for format p: for each
// edge exponent, a power of two, an all-ones significand, and a half-set
// significand, in both signs.
func gateBoundaryValues(p Params) []float64 {
	eMin, eSpan := gateBounds(p)
	exps := []int{
		eMin - 1, eMin, eMin + 1,
		eMin + eSpan - 1, eMin + eSpan, eMin + eSpan + 1,
	}
	// Limb-aligned offsets inside the window: off = (e + sBias) & 63 == 0,
	// where the window's high word is m >> 64 and must read as zero.
	sBias := 64*p.K - 1075
	for s := 0; s <= eSpan+max(0, eMin+sBias); s += 64 {
		if e := s - sBias; e >= eMin && e <= eMin+eSpan {
			exps = append(exps, e)
		}
	}
	var xs []float64
	for _, e := range exps {
		if e < 0 || e > 2047 {
			continue
		}
		for _, mant := range []uint64{0, 1<<52 - 1, 1 << 51} {
			bv := uint64(e)<<52 | mant
			xs = append(xs, math.Float64frombits(bv), math.Float64frombits(bv|1<<63))
		}
	}
	// Subnormals (e == 0, nonzero mantissa) and signed zeros.
	xs = append(xs,
		math.Float64frombits(1),        // smallest subnormal
		math.Float64frombits(1<<52-1),  // largest subnormal
		-math.Float64frombits(1<<52-1), // negative subnormal
		0, math.Copysign(0, -1),
	)
	return xs
}

// TestGateBoundary: element by element and cumulatively, both gated
// accumulators agree with the fused path on every boundary value —
// acceptance, sticky error identity, and canonical limbs.
func TestGateBoundary(t *testing.T) {
	for _, p := range batchFormats {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			xs := gateBoundaryValues(p)
			oracle := New(p)
			a := NewAccumulator(p).AllowWrap()
			s := NewSuper(p)
			var wantErr error
			for i, x := range xs {
				if _, err := oracle.AddFloat64(x); err != nil && wantErr == nil {
					wantErr = err
				}
				a.Add(x)
				s.Add(x)
				if a.Err() != wantErr || s.Err() != wantErr {
					t.Fatalf("value %d (%g, bits %016x): err accumulator=%v super=%v, want %v",
						i, x, math.Float64bits(x), a.Err(), s.Err(), wantErr)
				}
				if got := a.Sum(); !got.Equal(oracle) {
					t.Fatalf("value %d (%g, bits %016x): accumulator limbs diverged\naccumulator %016x\nfused       %016x",
						i, x, math.Float64bits(x), got.Limbs(), oracle.Limbs())
				}
				if got := s.Sum(); !got.Equal(oracle) {
					t.Fatalf("value %d (%g, bits %016x): super limbs diverged\nsuper %016x\nfused %016x",
						i, x, math.Float64bits(x), got.Limbs(), oracle.Limbs())
				}
			}
		})
	}
}

// TestGateBoundsNonNegative: for every Validate-accepted format the gate
// window is well-formed — eSpan >= 0 needs 64(N-K) >= -1020, which holds
// whenever K <= N — so the defensive clamp in gateBounds is unreachable
// through NewAccumulator/NewSuper. The sweep goes far past the shipped widths.
func TestGateBoundsNonNegative(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for k := 0; k <= n; k++ {
			p := Params{N: n, K: k}
			if p.Validate() != nil {
				continue
			}
			eMin := max(1, 1075-64*k)
			eSpan := min(2046, 64*n-54+1075-64*k) - eMin
			if eSpan < 0 {
				t.Fatalf("%v: raw eSpan %d < 0 — gate assumptions broken", p, eSpan)
			}
			gm, gs := gateBounds(p)
			if gm != eMin || gs != eSpan {
				t.Fatalf("%v: gateBounds = (%d,%d), want (%d,%d)", p, gm, gs, eMin, eSpan)
			}
		}
	}
}

// TestGateDegenerateClamp: a degenerate window (eSpan < 0, impossible
// through Validate but the failure mode the clamp guards) must route every
// value to the slow path rather than index outside the bins. The clamp is
// exercised directly: an unsigned compare against a negative span would
// accept every exponent.
func TestGateDegenerateClamp(t *testing.T) {
	if eMin, eSpan := gateBounds(Params{N: -1, K: 17}); eSpan != 0 || eMin < 1<<29 {
		t.Fatalf("degenerate gateBounds = (%d,%d), want closed window", eMin, eSpan)
	}
	// With the gate forced closed on a live accumulator, every add takes
	// the slow path and the sum still matches the fused oracle bit for bit.
	p := Params384
	xs := batchValues(p, 8, 300)
	oracle := New(p)
	wantErr := addBatchOracle(oracle, xs)

	a := NewAccumulator(p).AllowWrap()
	a.eMin, a.eSpan = 1<<30, 0
	a.AddAll(xs)
	if a.Err() != wantErr || !a.Sum().Equal(oracle) {
		t.Fatal("closed-gate canonical accumulator diverged from the fused path")
	}

	s := NewSuper(p)
	s.eMin = 1 << 30
	s.nbins = 1
	s.bins = s.bins[:superStripes]
	s.fold = s.fold[:1]
	s.lo, s.hi = 1, -1
	s.AddSlice(xs)
	if s.Err() != wantErr || !s.Sum().Equal(oracle) {
		t.Fatal("closed-gate super accumulator diverged from the fused path")
	}
}
