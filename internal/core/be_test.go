package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// AddFloat64sBE folds a big-endian wire payload in place. It must leave
// exactly the state AddSlice leaves over the decoded values: bins,
// watermark, spill points, sticky error and canonical limbs. These tests
// hold it to that on whichever lane this build dispatches (AVX2 on amd64,
// the Go twin under purego or REPRO_NOASM), and across lanes where both
// exist.

// beSpecials are the values every sweep injects: signed zeros, subnormals,
// the normal edge, out-of-gate magnitudes, and the non-finite values whose
// bytes AddFloat64sBE must turn into the same sticky error AddSlice does.
var beSpecials = []float64{
	0, math.Copysign(0, -1),
	0x1p-1074, -0x1p-1074, 0x1p-1022, -0x1.fffffffffffffp-1023,
	math.MaxFloat64, -math.MaxFloat64, 1e308, 1e-308,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, 0.5, 1.5,
}

// decodeBE decodes a payload without the finiteness check: the values
// AddSlice must see for a like-for-like comparison.
func decodeBE(p []byte) []float64 {
	xs := make([]float64, len(p)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
	}
	return xs
}

// superDiff describes the first difference between two superaccumulators'
// unspilled states — watermark, spill room, bins, sticky error, canonical
// limbs — or returns "", without changing either. Bins compare by stripe
// total (the AVX2 lane spreads a bin over four stripes, the Go loop uses
// one), and the canonical limbs hold only what has been spilled, so a
// different spill schedule shows as a difference.
func superDiff(a, b *SuperAccumulator) string {
	if a.lo != b.lo || a.hi != b.hi {
		return fmt.Sprintf("watermark [%d,%d] vs [%d,%d]", a.lo, a.hi, b.lo, b.hi)
	}
	if a.room != b.room {
		return fmt.Sprintf("room before next spill %d vs %d", a.room, b.room)
	}
	for i := 0; i < a.nbins; i++ {
		if x, y := binTotal(a, i), binTotal(b, i); x != y {
			return fmt.Sprintf("bin %d total %d vs %d", i, x, y)
		}
	}
	if (a.err == nil) != (b.err == nil) || (a.err != nil && a.err.Error() != b.err.Error()) {
		return fmt.Sprintf("sticky error %v vs %v", a.err, b.err)
	}
	if !a.sum.Equal(b.sum) {
		return fmt.Sprintf("canonical limbs before spill %s vs %s", a.sum, b.sum)
	}
	return ""
}

// spilledDiff is superDiff, then spills both and compares the canonical
// and rounded sums.
func spilledDiff(a, b *SuperAccumulator) string {
	if d := superDiff(a, b); d != "" {
		return d
	}
	if !a.Sum().Equal(b.Sum()) {
		return fmt.Sprintf("spilled sum %s vs %s", a.Sum(), b.Sum())
	}
	if x, y := a.Float64(), b.Float64(); math.Float64bits(x) != math.Float64bits(y) {
		return fmt.Sprintf("rounded sum %x vs %x", math.Float64bits(x), math.Float64bits(y))
	}
	return ""
}

// beStream returns n values for format p with specials injected.
func beStream(p Params, seed uint64, n int) []float64 {
	xs := batchValues(p, seed, n)
	r := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < n/20+1 && n > 0; i++ {
		xs[r.Intn(n)] = beSpecials[r.Intn(len(beSpecials))]
	}
	return xs
}

// TestAddFloat64sBEMatchesAddSlice sweeps every format with specials, in
// ragged payloads of 0–67 values at every byte alignment, with the spill
// bound lowered so spills land inside, at the edge of, and between
// payloads.
func TestAddFloat64sBEMatchesAddSlice(t *testing.T) {
	for _, p := range batchFormats {
		for _, every := range []uint64{MaxSuperAdds, 1, 3, 4, 5, 64} {
			t.Run(fmt.Sprintf("%s/spill%d", p, every), func(t *testing.T) {
				be, ref := NewSuper(p), NewSuper(p)
				for _, s := range []*SuperAccumulator{be, ref} {
					s.spillEvery, s.room = every, every
				}
				xs := beStream(p, 41, 4000)
				buf := make([]byte, 8+8*68)
				r := rand.New(rand.NewSource(9))
				for off := 0; off < len(xs); {
					n := min(r.Intn(68), len(xs)-off)
					align := r.Intn(8)
					payload := wire.AppendFloat64s(buf[:align], xs[off:off+n])[align:]
					be.AddFloat64sBE(payload)
					ref.AddSlice(decodeBE(payload))
					off += n
					if d := superDiff(be, ref); d != "" {
						t.Fatalf("after %d values: %s", off, d)
					}
				}
				if d := spilledDiff(be, ref); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

// TestAddFloat64sBERejectsRaggedPayload: a payload that is not whole
// float64s is a caller bug, not data, and must not be folded partially.
func TestAddFloat64sBERejectsRaggedPayload(t *testing.T) {
	s := NewSuper(Params384)
	defer func() {
		if recover() == nil {
			t.Fatal("AddFloat64sBE accepted a 9-byte payload")
		}
		if !s.Sum().IsZero() {
			t.Fatal("ragged payload was partly folded")
		}
	}()
	s.AddFloat64sBE(make([]byte, 9))
}

// FuzzFloat64sBEDifferential folds arbitrary bytes (whole values) with
// AddFloat64sBE on the dispatched lane and with AddSlice over the decoded
// values on the generic lane, for two formats, and requires identical
// state. The CI fuzz smoke runs it with the AVX2 lane on.
func FuzzFloat64sBEDifferential(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(wire.AppendFloat64s(nil, []float64{1, math.Inf(1), 0x1p-1074, -2.5, 0}), uint8(1))
	f.Add(wire.AppendFloat64s(nil, beStream(Params384, 3, 67)), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, every uint8) {
		raw = raw[:len(raw)&^7]
		for _, p := range []Params{Params128, Params384} {
			be := NewSuper(p)
			prev := SetAsmEnabled(false)
			ref := NewSuper(p)
			SetAsmEnabled(prev)
			if every > 0 {
				for _, s := range []*SuperAccumulator{be, ref} {
					s.spillEvery, s.room = uint64(every), uint64(every)
				}
			}
			be.AddFloat64sBE(raw)
			ref.AddSlice(decodeBE(raw))
			if d := spilledDiff(be, ref); d != "" {
				t.Fatalf("%s: %s", p, d)
			}
		}
	})
}
