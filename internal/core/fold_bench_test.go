package core

import (
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// The fold layer on one 4096-value ingest frame of well-scaled values:
// AddSlice over native float64s, AddFloat64sBE over the frame's big-endian
// payload, and the decode-then-fold pair the payload path replaces.

func benchFrame() []float64 {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = 2*r.Float64() - 1
	}
	return xs
}

func BenchmarkSuperFold(b *testing.B) {
	xs := benchFrame()
	p := wire.AppendFloat64s(nil, xs)
	s := NewSuper(Params384)
	b.Run("slice", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			s.AddSlice(xs)
		}
	})
	b.Run("payload", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			s.AddFloat64sBE(p)
		}
	})
	b.Run("decode+slice", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		var buf []float64
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = wire.Float64s(buf, p, ErrNotFinite); err != nil {
				b.Fatal(err)
			}
			s.AddSlice(buf)
		}
	})
}
