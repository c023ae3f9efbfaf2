package core

import (
	"math"
	"math/bits"

	"repro/internal/trace"
)

// coreFlight records overflow verdicts in the flight recorder. Overflow is
// a cold, sticky-error event, so the always-on recording never touches the
// add hot loops.
var coreFlight = trace.Subsystem("core")

// Accumulator is the convenience type for summing many float64 values into
// one HP number, and the package's canonical-trajectory accumulator: after
// every Add its limbs are exactly the sequential prefix state, so the
// per-add sign-rule overflow verdict, AddRound's rounded prefixes, and the
// exact products are decided on the same states for every decomposition of
// the input. It owns its conversion and rounding scratch so the hot
// convert-and-add path performs no allocation, and it records the first
// overflow/underflow sticky error rather than failing mid-stream, so a long
// reduction can be checked once at the end.
//
// Bulk folds whose intermediate states nobody observes go through
// SuperAccumulator instead. An Accumulator is not safe for concurrent use;
// see Atomic for the CAS-based shared accumulator of paper §III.B.2.
type Accumulator struct {
	sum     *HP
	scratch *HP      // product conversion scratch (AddProductExact)
	mag     []uint64 // magnitude scratch for Float64, reused across calls
	err     error
	wrapOK  bool // signed-overflow wraps are expected, not errors
	// Fast-path gate, cached from gateBounds at construction: a biased
	// exponent e with uint(e-eMin) <= uint(eSpan) is a nonzero normal
	// float64 whose significand provably fits the format, so Add places it
	// as a two-limb window without decomposeFloat64. Everything else
	// (zeros, subnormals, NaN/Inf, range faults) takes HP.AddFloat64.
	eMin, eSpan int
	sBias       int // s = e + sBias is the bit offset of the significand
}

// NewAccumulator returns a zeroed accumulator with the given parameters.
func NewAccumulator(p Params) *Accumulator {
	a := &Accumulator{sum: New(p), scratch: New(p), mag: make([]uint64, p.N), sBias: 64*p.K - 1075}
	a.eMin, a.eSpan = gateBounds(p)
	return a
}

// BatchAccumulator and NewBatch survive only for the repository benchmark's
// prefix-sum reference (perfbench), which builds its expected PrefixSum
// output with NewBatch(p).AddRound. Use NewAccumulator(p).AllowWrap().
type BatchAccumulator = Accumulator

// NewBatch returns NewAccumulator(p).AllowWrap(); see BatchAccumulator.
func NewBatch(p Params) *BatchAccumulator { return NewAccumulator(p).AllowWrap() }

// AllowWrap marks signed-overflow wraps as expected rather than errors:
// Add and AddHP let the two's-complement value wrap silently (conversion
// range faults still set the sticky error). Because multi-limb addition is
// exact mod 2^(64N), a wrapped intermediate that is later brought back in
// range by values of the opposite sign loses nothing; parallel drivers
// whose block partials may legitimately wrap (see scan) use this mode so
// the error outcome cannot depend on the decomposition. It returns a.
func (a *Accumulator) AllowWrap() *Accumulator {
	a.wrapOK = true
	return a
}

// Params returns the accumulator's HP parameters.
func (a *Accumulator) Params() Params { return a.sum.p }

// Add converts x and adds it to the running sum. A value inside the
// exponent gate lands as a signed two-limb window at the bit offset its
// exponent selects, with the carry or borrow that escapes the window
// rippled up only while it is nonzero; anything else goes through the
// fused sparse kernel ((*HP).AddFloat64), whose range checks decide
// acceptance. Both paths produce the same limbs. Conversion or addition
// faults set the sticky error (first one wins) and leave the sum unchanged
// for conversion faults; addition overflow wraps, as integer hardware
// would.
func (a *Accumulator) Add(x float64) {
	if a.add(x) && !a.wrapOK {
		mOverflow.Inc()
		if a.err == nil {
			a.err = ErrOverflow
		}
	}
}

// AddRound is Add followed by Float64, fused for per-element rebuild loops
// (scan phase 2 emits one rounded prefix per input element): it returns
// the running sum rounded to float64 through the reused magnitude scratch,
// and the paper's §III.B.1 sign-rule overflow verdict for this add, which
// is reported even in AllowWrap mode. A conversion fault sets the sticky
// error and reports no overflow.
func (a *Accumulator) AddRound(x float64) (out float64, overflow bool) {
	if overflow = a.add(x); overflow {
		mOverflow.Inc()
		coreFlight.Event("overflow", trace.Str("op", "add-round"))
		if !a.wrapOK && a.err == nil {
			a.err = ErrOverflow
		}
	}
	return limbsToFloat64(a.sum.limbs, a.sum.p.K, a.mag), overflow
}

// add adds x and returns the sign-rule overflow verdict: the sum and x
// agreed in sign before the add and the result's sign differs. Conversion
// faults set the sticky error and report no overflow.
func (a *Accumulator) add(x float64) (overflow bool) {
	bv := math.Float64bits(x)
	e := int(bv >> 52 & 0x7ff)
	if uint(e-a.eMin) > uint(a.eSpan) {
		overflow, err := a.sum.AddFloat64(x)
		if err != nil && a.err == nil {
			a.err = err
		}
		return overflow
	}
	l := a.sum.limbs
	s0 := l[0] >> 63
	m := bv&(1<<52-1) | 1<<52
	s := e + a.sBias
	off := uint(s) & 63
	lo := m << off
	hi := m >> (64 - off) // off==0: shift by 64 reads as 0
	// smask is all-ones for negative x: the window is negated as one
	// 128-bit quantity, and the all-ones sign extension above it turns
	// the escaped carry into a net +1, 0, or -1.
	smask := uint64(int64(bv) >> 63)
	dlo, c0 := bits.Add64(lo^smask, smask&1, 0)
	dhi, _ := bits.Add64(hi^smask, 0, c0)
	idx := len(l) - 1 - s>>6
	var c1, c2 uint64
	l[idx], c1 = bits.Add64(l[idx], dlo, 0)
	// At idx == 0 the window's high word is the sign extension alone and
	// the carry wraps past the top limb; at idx == 1 the escaped carry
	// does.
	if idx > 0 {
		l[idx-1], c2 = bits.Add64(l[idx-1], dhi, c1)
		if pend := c2 + smask; pend == 1 {
			for i := idx - 2; i >= 0; i-- {
				l[i]++
				if l[i] != 0 {
					break
				}
			}
		} else if pend != 0 { // pend == ^uint64(0): a borrow
			for i := idx - 2; i >= 0; i-- {
				l[i]--
				if l[i] != ^uint64(0) {
					break
				}
			}
		}
	}
	// Test the sign change first: it is rare, so the branch predicts well,
	// while the operand-sign comparison is a coin flip on mixed-sign data.
	return l[0]>>63 != s0 && s0 == bv>>63
}

// AddAll adds every element of xs.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// AddHP adds a partial sum in HP form (for combining per-worker partials).
func (a *Accumulator) AddHP(x *HP) {
	if x.p != a.sum.p {
		if a.err == nil {
			a.err = ErrParamMismatch
		}
		return
	}
	if a.sum.Add(x) && !a.wrapOK {
		mOverflow.Inc()
		if a.err == nil {
			a.err = ErrOverflow
		}
	}
}

// Merge folds another accumulator's partial sum into a, propagating its
// sticky error: the natural combine step when per-worker partials are
// reduced into a final result.
func (a *Accumulator) Merge(from *Accumulator) {
	if from.err != nil && a.err == nil {
		a.err = from.err
	}
	a.AddHP(from.sum)
}

// Err returns the first overflow/underflow/conversion error, or nil.
func (a *Accumulator) Err() error { return a.err }

// Sum returns the accumulated HP value (not a copy; it remains owned by a).
func (a *Accumulator) Sum() *HP { return a.sum }

// Float64 returns the running sum rounded to float64. Unlike HP.Float64 it
// reuses the accumulator's magnitude scratch buffer, so per-element
// rounding loops do not allocate.
func (a *Accumulator) Float64() float64 {
	return limbsToFloat64(a.sum.limbs, a.sum.p.K, a.mag)
}

// Reset zeroes the sum and clears the sticky error.
func (a *Accumulator) Reset() {
	a.sum.SetZero()
	a.err = nil
}

// Sum computes the HP sum of xs with parameters p, returning the rounded
// float64 result. It reports the first range error encountered, if any.
func Sum(p Params, xs []float64) (float64, error) {
	a := NewAccumulator(p)
	a.AddAll(xs)
	return a.Float64(), a.Err()
}

// SumHP is like Sum but returns the full-precision HP result.
func SumHP(p Params, xs []float64) (*HP, error) {
	a := NewAccumulator(p)
	a.AddAll(xs)
	return a.Sum(), a.Err()
}
