package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/rng"
)

func TestAccumulatorBasic(t *testing.T) {
	a := NewAccumulator(Params192)
	if a.Params() != Params192 {
		t.Errorf("Params = %v", a.Params())
	}
	a.Add(1.5)
	a.Add(-0.25)
	a.Add(2.0)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if got := a.Float64(); got != 3.25 {
		t.Errorf("sum = %g, want 3.25", got)
	}
	a.Reset()
	if !a.Sum().IsZero() || a.Err() != nil {
		t.Error("Reset incomplete")
	}
}

func TestAccumulatorStickyError(t *testing.T) {
	a := NewAccumulator(Params128)
	a.Add(1)
	a.Add(1e300) // overflow: sticky
	a.Add(2)     // still accumulated
	if a.Err() != ErrOverflow {
		t.Errorf("Err = %v, want ErrOverflow", a.Err())
	}
	if got := a.Float64(); got != 3 {
		t.Errorf("sum after skipped conversion = %g, want 3", got)
	}
	// First error wins.
	a.Add(math.Ldexp(1, -100)) // underflow, but overflow came first
	if a.Err() != ErrOverflow {
		t.Errorf("sticky error replaced: %v", a.Err())
	}
}

func TestAccumulatorAddHP(t *testing.T) {
	a := NewAccumulator(Params192)
	a.Add(1.5)
	partial, err := FromFloat64(Params192, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	a.AddHP(partial)
	if got := a.Float64(); got != 4 {
		t.Errorf("sum = %g, want 4", got)
	}
	wrong := New(Params128)
	a.AddHP(wrong)
	if a.Err() != ErrParamMismatch {
		t.Errorf("Err = %v, want ErrParamMismatch", a.Err())
	}
}

func TestSumHelpers(t *testing.T) {
	r := rng.New(11)
	xs := rng.UniformSet(r, 1000, -0.5, 0.5)
	got, err := Sum(Params384, xs)
	if err != nil {
		t.Fatal(err)
	}
	if want := exact.Sum(xs); got != want {
		t.Errorf("Sum = %g, want %g", got, want)
	}
	hp, err := SumHP(Params384, xs)
	if err != nil {
		t.Fatal(err)
	}
	if hp.Float64() != got {
		t.Error("SumHP and Sum disagree")
	}
}

// Splitting a reduction into per-worker partials and combining them with
// AddHP must give the same limbs as one sequential pass — the structure all
// of the paper's parallel experiments rely on.
func TestAccumulatorPartialCombination(t *testing.T) {
	r := rng.New(12)
	xs := rng.UniformSet(r, 4096, -0.5, 0.5)
	whole := NewAccumulator(Params384)
	whole.AddAll(xs)

	for _, pieces := range []int{2, 3, 7, 16} {
		combined := NewAccumulator(Params384)
		chunk := (len(xs) + pieces - 1) / pieces
		for lo := 0; lo < len(xs); lo += chunk {
			hi := lo + chunk
			if hi > len(xs) {
				hi = len(xs)
			}
			part := NewAccumulator(Params384)
			part.AddAll(xs[lo:hi])
			if part.Err() != nil {
				t.Fatal(part.Err())
			}
			combined.AddHP(part.Sum())
		}
		if combined.Err() != nil {
			t.Fatal(combined.Err())
		}
		if !combined.Sum().Equal(whole.Sum()) {
			t.Errorf("pieces=%d: partial combination differs from sequential", pieces)
		}
	}
}

// batchFormats are the formats the accumulator differential tests sweep:
// the canonical presets plus the degenerate shapes (N=1, two-limb, K=0,
// K=N) whose windows reach the top limb, where carries wrap.
var batchFormats = []Params{
	Params128, Params192, Params384, Params512,
	{N: 1, K: 0}, {N: 1, K: 1}, {N: 2, K: 0}, {N: 2, K: 2}, {N: 3, K: 3},
}

// batchValues returns a value stream tuned to format p: magnitudes spread
// across the whole representable exponent range, exact dyadic fractions,
// sign flips, zeros, and trailing-zero significands (the lo==0 window).
func batchValues(p Params, seed uint64, n int) []float64 {
	r := rand.New(rand.NewSource(int64(seed)))
	loExp := -64 * p.K
	hiExp := 64*(p.N-p.K) - 2
	xs := make([]float64, 0, n)
	for len(xs) < n {
		switch r.Intn(8) {
		case 0:
			xs = append(xs, 0, math.Copysign(0, -1))
		case 1: // single-bit values at random in-range exponents
			e := loExp + r.Intn(hiExp-loExp+1)
			xs = append(xs, math.Copysign(math.Ldexp(1, e), float64(1-2*r.Intn(2))))
		case 2: // trailing-zero significands: limb-aligned lo==0 windows
			if hiExp-1 < loExp {
				continue
			}
			e := loExp + 1 + r.Intn(hiExp-loExp)
			xs = append(xs, math.Copysign(math.Ldexp(1, e)+math.Ldexp(1, e-1), float64(1-2*r.Intn(2))))
		default:
			// Multi-bit significands placed so every bit is representable:
			// lowest bit at e >= loExp, highest at e+20 <= hiExp.
			span := hiExp - loExp - 20
			if span < 1 {
				continue
			}
			e := loExp + r.Intn(span)
			v := math.Ldexp(float64(1+r.Intn(1<<20)), e)
			if r.Intn(2) == 0 {
				v = -v
			}
			xs = append(xs, v)
		}
	}
	return xs[:n]
}

// addBatchOracle mirrors an add stream through the fused kernel, skipping
// exactly the elements the accumulators reject, and returns the first
// error. Wrap-mode: overflow verdicts are ignored, as SuperAccumulator and
// Accumulator.AllowWrap define.
func addBatchOracle(z *HP, xs []float64) error {
	var first error
	for _, x := range xs {
		if _, err := z.AddFloat64(x); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TestPropAccumulatorMatchesFused: from arbitrary starting states and value
// streams spanning the format range, the exponent-gated window add that
// Accumulator.Add and AddRound run is bit-identical to the fused sparse
// kernel — limbs, rounded prefix, per-add sign-rule verdict, and sticky
// error identity — across every format shape, including the degenerate
// ones whose windows reach the top limb.
func TestPropAccumulatorMatchesFused(t *testing.T) {
	for _, p := range batchFormats {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for trial := uint64(0); trial < 20; trial++ {
				start := mixedLimbs(p, trial*977+13)
				xs := batchValues(p, trial, 500)

				oracle := start.Clone()
				a := NewAccumulator(p).AllowWrap()
				a.AddHP(start)
				var wantErr error
				for i, x := range xs {
					wantOv, err := oracle.AddFloat64(x)
					if err != nil && wantErr == nil {
						wantErr = err
					}
					out, ov := a.AddRound(x)
					if ov != wantOv || a.Err() != wantErr {
						t.Fatalf("trial %d value %d (%g): overflow %v err %v, want %v %v",
							trial, i, x, ov, a.Err(), wantOv, wantErr)
					}
					if want := oracle.Float64(); math.Float64bits(out) != math.Float64bits(want) {
						t.Fatalf("trial %d value %d (%g): rounded %g, want %g", trial, i, x, out, want)
					}
				}
				if got := a.Sum(); !got.Equal(oracle) {
					t.Fatalf("trial %d: limbs diverged\naccumulator %016x\nfused       %016x",
						trial, got.Limbs(), oracle.Limbs())
				}
			}
		})
	}
}

// TestAccumulatorGoldenEscapedCarries pins the carry handling of the gated
// window add: a carry or borrow that escapes the value's two-limb window
// ripples up the limbs above it until absorbed, and a ripple into the sign
// bit is an overflow verdict.
func TestAccumulatorGoldenEscapedCarries(t *testing.T) {
	p := Params{N: 4, K: 1}
	// All 53 bits set at the lowest gated offset (s = 0): the window is
	// limbs {3, 2}, and lo = 2^53-1 carries out of an all-ones limb 3.
	x := math.Ldexp(1<<53-1, -64)
	cases := []struct {
		name      string
		start     []uint64
		x         float64
		want      []uint64
		overflows bool
	}{
		{"carry past the window", []uint64{0, 0, ^uint64(0), ^uint64(0)}, x,
			[]uint64{0, 1, 0, 1<<53 - 2}, false},
		{"borrow past the window", []uint64{0, 1, 0, 1<<53 - 2}, -x,
			[]uint64{0, 0, ^uint64(0), ^uint64(0)}, false},
		{"carry into the sign bit", []uint64{1<<63 - 1, ^uint64(0), ^uint64(0), ^uint64(0)}, x,
			[]uint64{1 << 63, 0, 0, 1<<53 - 2}, true},
	}
	for _, c := range cases {
		a := NewAccumulator(p).AllowWrap()
		if e := int(math.Float64bits(c.x) >> 52 & 0x7ff); uint(e-a.eMin) > uint(a.eSpan) {
			t.Fatalf("%s: %g is outside the gate", c.name, c.x)
		}
		copy(a.sum.limbs, c.start)
		if _, ov := a.AddRound(c.x); ov != c.overflows {
			t.Errorf("%s: overflow %v, want %v", c.name, ov, c.overflows)
		}
		for i, w := range c.want {
			if a.sum.limbs[i] != w {
				t.Fatalf("%s: limbs %016x, want %016x", c.name, a.sum.limbs, c.want)
			}
		}
	}
}

// TestAccumulatorAddRoundVerdict: AddRound reports the sign-rule verdict
// on the canonical trajectory element for element, including through
// wrap-and-return sequences, and makes it sticky only outside AllowWrap.
func TestAccumulatorAddRoundVerdict(t *testing.T) {
	p := Params{N: 2, K: 1}
	big := math.Ldexp(1, 62)
	xs := []float64{big, big, -big, -big, -big, -big, big, big, 1.5, -0.25}
	oracle := New(p)
	wrap := NewAccumulator(p).AllowWrap()
	for i, x := range xs {
		wantOv, err := oracle.AddFloat64(x)
		if err != nil {
			t.Fatal(err)
		}
		if _, ov := wrap.AddRound(x); ov != wantOv {
			t.Fatalf("element %d (%g): overflow %v, want %v", i, x, ov, wantOv)
		}
		if !wrap.Sum().Equal(oracle) {
			t.Fatalf("element %d: states diverged", i)
		}
	}
	if wrap.Err() != nil {
		t.Fatalf("AllowWrap made a wrap sticky: %v", wrap.Err())
	}
	strict := NewAccumulator(p)
	strict.AddRound(big)
	if _, ov := strict.AddRound(big); !ov || strict.Err() != ErrOverflow {
		t.Fatalf("strict AddRound: overflow %v err %v, want true ErrOverflow", ov, strict.Err())
	}
}
