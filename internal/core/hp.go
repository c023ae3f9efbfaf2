package core

import (
	"math"
	"math/big"
	"math/bits"
)

// HP is a fixed-point high-precision real number in the paper's format: N
// unsigned 64-bit limbs storing a two's-complement integer (limb 0 most
// significant, sign in bit 63 of limb 0) scaled by 2^(-64k).
//
// HP values are mutable accumulators; the arithmetic methods operate in
// place on the receiver. Use New or Params.New to construct one.
type HP struct {
	p     Params
	limbs []uint64 // big-endian: limbs[0] holds the most significant 64 bits
}

// New returns a zero-valued HP number with the given parameters. It panics
// if p is invalid; use Params.Validate to check first.
func New(p Params) *HP {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &HP{p: p, limbs: make([]uint64, p.N)}
}

// FromFloat64 converts x into a new HP number with parameters p. It returns
// an error if x is not finite or does not fit the format exactly.
func FromFloat64(p Params, x float64) (*HP, error) {
	z := New(p)
	if err := z.SetFloat64(x); err != nil {
		return nil, err
	}
	return z, nil
}

// Params returns the (N, k) parameters of x.
func (x *HP) Params() Params { return x.p }

// Limbs returns a copy of the limb vector, most significant limb first.
func (x *HP) Limbs() []uint64 {
	out := make([]uint64, len(x.limbs))
	copy(out, x.limbs)
	return out
}

// SetZero resets x to zero.
func (x *HP) SetZero() *HP {
	for i := range x.limbs {
		x.limbs[i] = 0
	}
	return x
}

// IsZero reports whether x is exactly zero.
func (x *HP) IsZero() bool {
	for _, l := range x.limbs {
		if l != 0 {
			return false
		}
	}
	return true
}

// IsNeg reports whether x is negative (two's-complement sign bit set).
func (x *HP) IsNeg() bool { return x.limbs[0]>>63 == 1 }

// Sign returns -1, 0, or +1.
func (x *HP) Sign() int {
	if x.IsNeg() {
		return -1
	}
	if x.IsZero() {
		return 0
	}
	return 1
}

// Clone returns an independent copy of x.
func (x *HP) Clone() *HP {
	z := &HP{p: x.p, limbs: make([]uint64, len(x.limbs))}
	copy(z.limbs, x.limbs)
	return z
}

// Set copies y into x. The parameters must match.
func (x *HP) Set(y *HP) error {
	if x.p != y.p {
		return ErrParamMismatch
	}
	copy(x.limbs, y.limbs)
	return nil
}

// Equal reports whether x and y have identical parameters and limbs.
func (x *HP) Equal(y *HP) bool {
	if x.p != y.p {
		return false
	}
	for i := range x.limbs {
		if x.limbs[i] != y.limbs[i] {
			return false
		}
	}
	return true
}

// negate replaces x with its two's complement (-x). Negating the minimum
// representable value yields itself, as in machine integer arithmetic.
func (x *HP) negate() {
	carry := uint64(1)
	for i := len(x.limbs) - 1; i >= 0; i-- {
		x.limbs[i], carry = bits.Add64(^x.limbs[i], 0, carry)
	}
}

// Neg replaces x with -x.
func (x *HP) Neg() *HP {
	x.negate()
	return x
}

// SetFloat64 sets x to the exact value of v. The conversion decomposes the
// float64 bit pattern directly (no floating-point arithmetic), so it is
// exact whenever it succeeds. It returns ErrNotFinite for NaN/Inf,
// ErrOverflow if |v| >= 2^(64(N-k)-1), and ErrUnderflow if v has significant
// bits below 2^(-64k); x is reset to zero in every case before conversion.
//
// See also SetFloat64Listing1, the paper's original float-arithmetic
// conversion loop, which produces identical limbs for in-range inputs.
func (x *HP) SetFloat64(v float64) error {
	x.SetZero()
	if v == 0 {
		return nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ErrNotFinite
	}
	frac, exp := math.Frexp(v)
	neg := false
	if frac < 0 {
		neg = true
		frac = -frac
	}
	m := uint64(frac * (1 << 53)) // 53-bit integer significand, in [2^52, 2^53)
	s := exp - 53 + 64*x.p.K      // scaled integer A = m * 2^s
	if s < 0 {
		sh := uint(-s)
		if sh >= 64 || m&((uint64(1)<<sh)-1) != 0 {
			return ErrUnderflow
		}
		m >>= sh
		s = 0
	}
	if bits.Len64(m)+s > 64*x.p.N-1 {
		return ErrOverflow
	}
	j := s / 64 // limb offset from the least significant end
	off := uint(s % 64)
	x.limbs[x.p.N-1-j] = m << off
	if off != 0 {
		if hi := m >> (64 - off); hi != 0 {
			x.limbs[x.p.N-2-j] = hi
		}
	}
	if neg {
		x.negate()
	}
	return nil
}

// magnitude writes |x| into dst as an unsigned limb vector (two's complement
// undone if negative) and reports whether x was negative. dst must have
// length N.
func (x *HP) magnitude(dst []uint64) bool {
	return magnitudeInto(dst, x.limbs)
}

// magnitudeInto writes the magnitude of the big-endian two's-complement limb
// vector src into dst and reports whether src was negative. Shared by
// HP.magnitude and the generic rounding path of limbsToFloat64.
func magnitudeInto(dst, src []uint64) bool {
	copy(dst, src)
	if src[0]>>63 == 0 {
		return false
	}
	carry := uint64(1)
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i], carry = bits.Add64(^dst[i], 0, carry)
	}
	return true
}

// magBitLen returns the bit length of the unsigned value in limbs
// (big-endian): the position of the highest set bit plus one, or 0 if zero.
func magBitLen(limbs []uint64) int {
	for i, l := range limbs {
		if l != 0 {
			return 64*(len(limbs)-1-i) + bits.Len64(l)
		}
	}
	return 0
}

// bitAt returns bit pos (0 = least significant) of the big-endian limb
// vector; positions outside the vector read as 0.
func bitAt(limbs []uint64, pos int) uint64 {
	if pos < 0 || pos >= 64*len(limbs) {
		return 0
	}
	i := len(limbs) - 1 - pos/64
	return (limbs[i] >> uint(pos%64)) & 1
}

// window returns the 64 bits of the big-endian limb vector starting at bit
// position pos (0 = least significant); bits beyond the vector read as 0.
func window(limbs []uint64, pos int) uint64 {
	if pos >= 64*len(limbs) {
		return 0
	}
	i := len(limbs) - 1 - pos/64
	off := uint(pos % 64)
	w := limbs[i] >> off
	if off != 0 && i > 0 {
		w |= limbs[i-1] << (64 - off)
	}
	return w
}

// anyBitBelow reports whether any bit at a position < pos is set.
func anyBitBelow(limbs []uint64, pos int) bool {
	if pos <= 0 {
		return false
	}
	if pos >= 64*len(limbs) {
		pos = 64 * len(limbs)
	}
	full := pos / 64
	for i := 0; i < full; i++ {
		if limbs[len(limbs)-1-i] != 0 {
			return true
		}
	}
	if rem := uint(pos % 64); rem != 0 {
		if limbs[len(limbs)-1-full]&((uint64(1)<<rem)-1) != 0 {
			return true
		}
	}
	return false
}

// shiftRightRounded returns the magnitude shifted right by shift bits,
// rounded to nearest with ties to even. The caller guarantees the result
// fits in a uint64 (at most 54 bits: 53 kept plus a possible rounding
// carry).
func shiftRightRounded(limbs []uint64, shift, keepBits int) uint64 {
	var mant uint64
	if keepBits > 0 {
		mant = window(limbs, shift)
		if keepBits < 64 {
			mant &= (uint64(1) << uint(keepBits)) - 1
		}
	}
	if shift == 0 {
		return mant
	}
	guard := bitAt(limbs, shift-1)
	if guard == 0 {
		return mant
	}
	if anyBitBelow(limbs, shift-1) || mant&1 == 1 {
		mant++
	}
	return mant
}

// Float64 converts x to the nearest float64 (round to nearest, ties to
// even). Values beyond float64 range saturate to ±Inf; magnitudes below half
// the smallest subnormal round to ±0. This mirrors the paper's observation
// (§III.B.1) that HP-to-double conversion can itself overflow or underflow
// when the HP range exceeds that of double precision.
func (x *HP) Float64() float64 {
	return limbsToFloat64(x.limbs, x.p.K, nil)
}

// limbsToFloat64 rounds a canonical two's-complement limb vector (big-
// endian, k fractional limbs) to the nearest float64, ties to even. The
// common case — a result that lands in float64's normal range — is handled
// directly on the two's-complement words: the magnitude limbs are derived
// lazily (complement above the lowest nonzero limb, negate at it), so no
// magnitude buffer is written and no math.Ldexp call is made. Everything
// else (zero, subnormal results, saturation to ±Inf, values shorter than
// the target precision) falls back to the generic magnitude path through
// mag, which is allocated only if nil.
func limbsToFloat64(limbs []uint64, k int, mag []uint64) float64 {
	if limbs[0]>>63 == 0 {
		// Positive (or zero): the limbs are the magnitude.
		return roundMagnitude(limbs, k)
	}
	// Negative: the magnitude is ^limbs + 1. The +1 ripples only through
	// the trailing zero limbs, so limb i of the magnitude is ^limbs[i]
	// above the lowest nonzero limb (index lo), -limbs[lo] at it, and 0
	// below — negMagLimb reads it lazily, nothing is written.
	n := len(limbs)
	lo := n - 1
	for limbs[lo] == 0 {
		lo--
	}
	t := 0
	for t < lo && limbs[t] == ^uint64(0) {
		t++
	}
	mt := negMagLimb(limbs, lo, t)
	bl := 64*(n-1-t) + bits.Len64(mt)
	shift := bl - 53
	if shift < 1 {
		return slowNegToFloat64(limbs, k, mag)
	}
	j := n - 1 - shift/64
	off := uint(shift) & 63
	mant := negMagLimb(limbs, lo, j) >> off
	if off != 0 && j > 0 {
		mant |= negMagLimb(limbs, lo, j-1) << (64 - off)
	}
	mant &= 1<<53 - 1
	goff := uint(shift-1) & 63
	jg := n - 1 - (shift-1)/64
	if negMagLimb(limbs, lo, jg)>>goff&1 != 0 {
		// The magnitude's lowest nonzero limb is exactly lo (its value
		// there is -limbs[lo] != 0), so "any magnitude bit in a limb below
		// jg" is just lo > jg — no scan.
		sticky := mant&1 == 1 || lo > jg
		if !sticky && goff != 0 {
			sticky = negMagLimb(limbs, lo, jg)&(1<<goff-1) != 0
		}
		if sticky {
			mant++
		}
	}
	f := float64(mant) // exact: mant <= 2^53
	b := math.Float64bits(f)
	e := shift - 64*k
	if ne := int(b>>52&0x7ff) + e; ne < 1 || ne > 2046 {
		return slowNegToFloat64(limbs, k, mag)
	}
	return -math.Float64frombits(b + uint64(int64(e))<<52)
}

// negMagLimb returns limb i of the magnitude of a negative two's-complement
// limb vector whose lowest nonzero limb is at index lo.
func negMagLimb(limbs []uint64, lo, i int) uint64 {
	if i > lo {
		return 0
	}
	m := ^limbs[i]
	if i == lo {
		m++
	}
	return m
}

// slowNegToFloat64 is the generic fallback for negative values (subnormal,
// saturating, or shorter than the target precision): materialize the
// magnitude into mag (allocated if nil) and round through magToFloat64.
func slowNegToFloat64(limbs []uint64, k int, mag []uint64) float64 {
	if mag == nil {
		mag = make([]uint64, len(limbs))
	}
	magnitudeInto(mag, limbs)
	return magToFloat64(mag, k, true)
}

// roundMagnitude rounds the unsigned big-endian magnitude m (k fractional
// limbs) to float64. Normal-range results are computed with one top-limb
// scan, a two-limb window read, and a sticky scan — no math.Ldexp;
// everything else (zero, subnormal, saturation, values shorter than the
// target precision) defers to the generic magToFloat64.
func roundMagnitude(m []uint64, k int) float64 {
	n := len(m)
	t := 0
	for m[t] == 0 {
		if t++; t == n {
			return 0
		}
	}
	bl := 64*(n-1-t) + bits.Len64(m[t])
	shift := bl - 53
	if shift < 1 {
		// Fewer bits than the target precision (plus guard): exact, rare.
		return magToFloat64(m, k, false)
	}
	// 53-bit window starting at bit `shift` spans at most two limbs; the
	// guard bit at shift-1 and the sticky bits sit at and below limb jg.
	j := n - 1 - shift/64
	off := uint(shift) & 63
	mant := m[j] >> off
	if off != 0 && j > 0 {
		mant |= m[j-1] << (64 - off)
	}
	mant &= 1<<53 - 1
	goff := uint(shift-1) & 63
	jg := n - 1 - (shift-1)/64
	if m[jg]>>goff&1 != 0 {
		sticky := mant&1 == 1 // a tie rounds up iff mant is odd: no scan
		for i := n - 1; !sticky && i > jg; i-- {
			sticky = m[i] != 0
		}
		if !sticky && goff != 0 {
			sticky = m[jg]&(1<<goff-1) != 0
		}
		if sticky {
			mant++
		}
	}
	f := float64(mant) // exact: mant <= 2^53
	b := math.Float64bits(f)
	e := shift - 64*k
	if ne := int(b>>52&0x7ff) + e; ne < 1 || ne > 2046 {
		// Subnormal or out of float64 range: the 53-bit rounding above
		// does not apply; redo generically.
		return magToFloat64(m, k, false)
	}
	return math.Float64frombits(b + uint64(int64(e))<<52)
}

func magToFloat64(mag []uint64, k int, neg bool) float64 {
	bl := magBitLen(mag)
	if bl == 0 {
		return 0
	}
	ebit := bl - 1 - 64*k // exponent of the leading bit
	if ebit > 1023 {
		if neg {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	prec := 53
	if ebit < -1022 { // result is subnormal: fewer effective bits
		prec = 53 + (ebit + 1022)
	}
	shift := bl - prec // may exceed bl when prec <= 0; handled by helpers
	if shift < 0 {
		// The value has fewer significant bits than the target precision:
		// it converts exactly with no rounding.
		shift = 0
		prec = bl
	}
	mant := shiftRightRounded(mag, shift, prec)
	v := math.Ldexp(float64(mant), shift-64*k)
	if neg {
		v = -v
	}
	return v
}

// Add adds y to x in place (x += y) using a full carry chain from the least
// significant limb, and reports whether the signed addition overflowed
// (operands of equal sign producing a result of the opposite sign, the
// paper's §III.B.1 detection rule). On overflow x holds the wrapped value,
// exactly as machine integer arithmetic would.
func (x *HP) Add(y *HP) (overflow bool) {
	if x.p != y.p {
		panic(ErrParamMismatch)
	}
	signX := x.limbs[0] >> 63
	signY := y.limbs[0] >> 63
	var carry uint64
	for i := len(x.limbs) - 1; i >= 0; i-- {
		x.limbs[i], carry = bits.Add64(x.limbs[i], y.limbs[i], carry)
	}
	return signX == signY && x.limbs[0]>>63 != signX
}

// Sub subtracts y from x in place (x -= y) and reports signed overflow.
func (x *HP) Sub(y *HP) (overflow bool) {
	if x.p != y.p {
		panic(ErrParamMismatch)
	}
	signX := x.limbs[0] >> 63
	signY := y.limbs[0] >> 63
	var borrow uint64
	for i := len(x.limbs) - 1; i >= 0; i-- {
		x.limbs[i], borrow = bits.Sub64(x.limbs[i], y.limbs[i], borrow)
	}
	return signX != signY && x.limbs[0]>>63 != signX
}

// Cmp compares x and y as signed fixed-point values, returning -1, 0, or +1.
// It panics on mismatched parameters.
func (x *HP) Cmp(y *HP) int {
	if x.p != y.p {
		panic(ErrParamMismatch)
	}
	const signBit = uint64(1) << 63
	a0 := x.limbs[0] ^ signBit
	b0 := y.limbs[0] ^ signBit
	if a0 != b0 {
		if a0 < b0 {
			return -1
		}
		return 1
	}
	for i := 1; i < len(x.limbs); i++ {
		if x.limbs[i] != y.limbs[i] {
			if x.limbs[i] < y.limbs[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Rat returns the exact value of x as a rational number.
func (x *HP) Rat() *big.Rat {
	mag := make([]uint64, x.p.N)
	neg := x.magnitude(mag)
	num := new(big.Int)
	for _, l := range mag {
		num.Lsh(num, 64)
		num.Or(num, new(big.Int).SetUint64(l))
	}
	if neg {
		num.Neg(num)
	}
	den := new(big.Int).Lsh(big.NewInt(1), uint(64*x.p.K))
	return new(big.Rat).SetFrac(num, den)
}

// BigFloat returns the exact value of x as a big.Float with full precision.
func (x *HP) BigFloat() *big.Float {
	f := new(big.Float).SetPrec(uint(64 * x.p.N))
	return f.SetRat(x.Rat())
}

// String formats x in decimal scientific notation with enough digits to be
// unambiguous for diagnostics (not round-trip exact; use Rat for exactness).
func (x *HP) String() string {
	return x.BigFloat().Text('g', 25)
}
