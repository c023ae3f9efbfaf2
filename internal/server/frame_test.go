package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

func TestFloatFrameRoundTrip(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{1.5, -2.25, 1e-300, -1e300, 0.1},
		{math.Copysign(0, -1)},
	}
	for _, xs := range cases {
		buf := AppendFloatFrame(nil, xs)
		dec := wire.NewDecoder(bytes.NewReader(buf), &IngestFrames, MaxFramePayload)
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("decode %v: %v", xs, err)
		}
		if f.Type != FrameFloat64 {
			t.Fatalf("type %q", f.Type)
		}
		got, err := wire.Float64s(nil, f.Payload, core.ErrNotFinite)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(xs) {
			t.Fatalf("got %d values, want %d", len(got), len(xs))
		}
		for i := range xs {
			if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
				t.Fatalf("value %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(xs[i]))
			}
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("want EOF after single frame, got %v", err)
		}
	}
}

func TestHPFrameRoundTrip(t *testing.T) {
	h, err := core.FromFloat64(core.Params384, -12345.0625)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendHPFrame(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.NewDecoder(bytes.NewReader(buf), &IngestFrames, MaxFramePayload).Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameHP {
		t.Fatalf("type %q", f.Type)
	}
	got, err := frameHP(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) {
		t.Fatalf("HP mismatch: %v vs %v", got, h)
	}
}

func TestFrameDecoderMultiple(t *testing.T) {
	var buf []byte
	buf = AppendFloatFrame(buf, []float64{1, 2, 3})
	h := core.New(core.Params128)
	var err error
	buf, err = AppendHPFrame(buf, h)
	if err != nil {
		t.Fatal(err)
	}
	buf = AppendFloatFrame(buf, []float64{4})
	dec := wire.NewDecoder(bytes.NewReader(buf), &IngestFrames, MaxFramePayload)
	types := []byte{}
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, f.Type)
	}
	if want := []byte{FrameFloat64, FrameHP, FrameFloat64}; !bytes.Equal(types, want) {
		t.Fatalf("types %q, want %q", types, want)
	}
}

func TestFrameDecoderRejectsCorruption(t *testing.T) {
	valid := AppendFloatFrame(nil, []float64{1.25, -7})

	t.Run("bit-flip", func(t *testing.T) {
		for pos := 0; pos < len(valid); pos++ {
			mauled := append([]byte(nil), valid...)
			mauled[pos] ^= 0x40
			_, err := wire.NewDecoder(bytes.NewReader(mauled), &IngestFrames, MaxFramePayload).Next()
			if err == nil {
				t.Fatalf("flip at byte %d accepted", pos)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for cut := 1; cut < len(valid); cut++ {
			_, err := wire.NewDecoder(bytes.NewReader(valid[:cut]), &IngestFrames, MaxFramePayload).Next()
			if err == nil || err == io.EOF {
				t.Fatalf("truncation at %d bytes: err=%v", cut, err)
			}
		}
	})
	t.Run("bad-type", func(t *testing.T) {
		mauled := append([]byte(nil), valid...)
		mauled[0] = 'z'
		_, err := wire.NewDecoder(bytes.NewReader(mauled), &IngestFrames, MaxFramePayload).Next()
		if !errors.Is(err, ErrFrameType) {
			t.Fatalf("err=%v, want ErrFrameType", err)
		}
	})
	t.Run("oversize-length-no-alloc", func(t *testing.T) {
		// A length prefix claiming 4 GiB must be rejected by the bound
		// check, not attempted as an allocation.
		hdr := []byte{FrameFloat64, 0xff, 0xff, 0xff, 0xf8}
		_, err := wire.NewDecoder(bytes.NewReader(hdr), &IngestFrames, MaxFramePayload).Next()
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err=%v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		mauled := append([]byte(nil), valid...)
		mauled[len(mauled)-1] ^= 0xff
		_, err := wire.NewDecoder(bytes.NewReader(mauled), &IngestFrames, MaxFramePayload).Next()
		if !errors.Is(err, ErrFrameChecksum) {
			t.Fatalf("err=%v, want ErrFrameChecksum", err)
		}
	})
}

func TestFloatsRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// Build the frame by hand: AppendFloatFrame would happily encode it,
		// and the wire CRC is over the bit pattern, so it decodes structurally.
		buf := AppendFloatFrame(nil, []float64{1, bad})
		f, err := wire.NewDecoder(bytes.NewReader(buf), &IngestFrames, MaxFramePayload).Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.CheckFloat64s(f.Payload, core.ErrNotFinite); !errors.Is(err, core.ErrNotFinite) {
			t.Fatalf("%v: err=%v, want ErrNotFinite", bad, err)
		}
	}
}

func TestFrameOverheadConstant(t *testing.T) {
	buf := AppendFloatFrame(nil, []float64{1, 2, 3})
	if len(buf) != wire.Overhead+3*8 {
		t.Fatalf("frame of 3 values is %d bytes, want %d", len(buf), wire.Overhead+3*8)
	}
	if got := int(binary.BigEndian.Uint32(buf[1:5])); got != 24 {
		t.Fatalf("length prefix %d, want 24", got)
	}
}
