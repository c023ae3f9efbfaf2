package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

var (
	errTrunc    = errors.New("test: truncated")
	errType     = errors.New("test: bad type")
	errTooLarge = errors.New("test: too large")
	errChecksum = errors.New("test: checksum")
	errBounds   = errors.New("test: bounds")
	errBad      = errors.New("test: bad")
)

var testSpec = Spec{Types: "ab", Trunc: errTrunc, Type: errType, TooLarge: errTooLarge, Checksum: errChecksum}

const testMax = 64

func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	return End(append(Begin(buf, typ), payload...), start)
}

func testStream() []byte {
	buf := appendFrame(nil, 'a', []byte("hello"))
	buf = appendFrame(buf, 'b', nil)
	start := len(buf)
	buf = Begin(buf, 'a')
	buf = AppendFloat64s(buf, []float64{1.5, -2})
	return End(buf, start)
}

// decodeAll walks data with both decoders and reports what each accepted
// and the error each stopped on (nil for a clean end).
func decodeAll(data []byte) (stream, split []Frame, streamErr, splitErr error) {
	d := NewDecoder(bytes.NewReader(data), &testSpec, testMax)
	for {
		f, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			streamErr = err
			break
		}
		stream = append(stream, Frame{f.Type, bytes.Clone(f.Payload)})
	}
	for off := 0; off < len(data); {
		f, n, err := Split(data[off:], &testSpec, testMax)
		if err != nil {
			splitErr = err
			break
		}
		split = append(split, f)
		off += n
	}
	return
}

func TestFrameRoundTrip(t *testing.T) {
	data := testStream()
	stream, split, serr, perr := decodeAll(data)
	if serr != nil || perr != nil {
		t.Fatalf("stream err %v, split err %v", serr, perr)
	}
	if len(stream) != 3 || len(split) != 3 {
		t.Fatalf("decoded %d / %d frames, want 3", len(stream), len(split))
	}
	for i := range stream {
		if stream[i].Type != split[i].Type || !bytes.Equal(stream[i].Payload, split[i].Payload) {
			t.Fatalf("frame %d: stream %+v, split %+v", i, stream[i], split[i])
		}
	}
	if string(stream[0].Payload) != "hello" || len(stream[1].Payload) != 0 {
		t.Fatalf("payloads %q %q", stream[0].Payload, stream[1].Payload)
	}
	xs, err := Float64s(nil, stream[2].Payload, errBad)
	if err != nil || len(xs) != 2 || xs[0] != 1.5 || xs[1] != -2 {
		t.Fatalf("floats %v, %v", xs, err)
	}
	if len(data) != 3*Overhead+5+16 {
		t.Fatalf("stream of %d bytes", len(data))
	}
}

func TestFrameRejects(t *testing.T) {
	valid := appendFrame(nil, 'a', []byte("payload"))
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"bad type", append([]byte{'z'}, valid[1:]...), errType},
		{"header cut", valid[:3], errTrunc},
		{"payload cut", valid[:len(valid)-1], errTrunc},
		{"oversize length", []byte{'a', 0xff, 0xff, 0xff, 0xf8}, errTooLarge},
		{"crc flip", append(valid[:len(valid)-1:len(valid)-1], valid[len(valid)-1]^1), errChecksum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, serr, perr := decodeAll(tc.data)
			if !errors.Is(serr, tc.want) || !errors.Is(perr, tc.want) {
				t.Fatalf("stream err %v, split err %v, want %v", serr, perr, tc.want)
			}
		})
	}
}

func TestDecoderWrapsReadErrors(t *testing.T) {
	boom := errors.New("boom")
	d := NewDecoder(io.MultiReader(bytes.NewReader([]byte{'a', 0}), failReader{boom}), &testSpec, testMax)
	if _, err := d.Next(); !errors.Is(err, errTrunc) || !errors.Is(err, boom) {
		t.Fatalf("err %v, want truncation wrapping the read error", err)
	}
}

type failReader struct{ err error }

func (r failReader) Read([]byte) (int, error) { return 0, r.err }

func TestEnvelope(t *testing.T) {
	buf := StartEnvelope(nil, "TEST", 3)
	buf = append(buf, "body"...)
	buf = Seal(buf, 0)
	body, err := OpenEnvelope(buf, "TEST", 3, errBad)
	if err != nil || string(body) != "body" {
		t.Fatalf("body %q, err %v", body, err)
	}
	if _, err := OpenEnvelope(buf, "TEST", 4, errBad); !errors.Is(err, errBad) {
		t.Fatalf("wrong version: %v", err)
	}
	if _, err := OpenEnvelope(buf, "TSET", 3, errBad); !errors.Is(err, errBad) {
		t.Fatalf("wrong magic: %v", err)
	}
	for pos := range buf {
		mauled := bytes.Clone(buf)
		mauled[pos] ^= 0x10
		if _, err := OpenEnvelope(mauled, "TEST", 3, errBad); !errors.Is(err, errBad) {
			t.Fatalf("flip at %d: %v", pos, err)
		}
	}
	for cut := range buf {
		if _, err := OpenEnvelope(buf[:cut], "TEST", 3, errBad); !errors.Is(err, errBad) {
			t.Fatalf("cut at %d: %v", cut, err)
		}
	}
}

func TestCursor(t *testing.T) {
	data := []byte{7, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 'h', 'i'}
	c := NewCursor(data, errTrunc, errBounds)
	if c.U8() != 7 || c.U16() != 2 || c.U32() != 3 || c.U64() != 4 {
		t.Fatal("fixed-width reads")
	}
	if string(c.Bytes(2, 2, "text")) != "hi" || c.Err() != nil || c.Len() != 0 || c.Off() != len(data) {
		t.Fatalf("bytes read: err %v, len %d", c.Err(), c.Len())
	}
	// The first short read latches; later reads return zero values.
	if c.U8() != 0 || !errors.Is(c.Err(), errTrunc) {
		t.Fatalf("short read: %v", c.Err())
	}
	c.Fail(errBad)
	if !errors.Is(c.Err(), errTrunc) {
		t.Fatal("Fail overwrote the first error")
	}

	c = NewCursor(data, errTrunc, errBounds)
	if c.Bytes(5, 4, "name") != nil || !errors.Is(c.Err(), errBounds) {
		t.Fatalf("oversize read: %v", c.Err())
	}
	if c.U8() != 0 || !errors.Is(c.Err(), errBounds) {
		t.Fatal("latched error changed")
	}
}

func TestCursorTrailer(t *testing.T) {
	rec := Seal([]byte{1, 2, 3}, 0)
	rec = append(rec, 9) // the next record's first byte
	c := NewCursor(rec, errTrunc, errBounds)
	c.Bytes(3, 3, "body")
	c.Trailer(errBad)
	if c.Err() != nil || c.Off() != 7 {
		t.Fatalf("trailer: err %v, off %d", c.Err(), c.Off())
	}
	rec[1] ^= 1
	c = NewCursor(rec, errTrunc, errBounds)
	c.Bytes(3, 3, "body")
	if c.Trailer(errBad); !errors.Is(c.Err(), errBad) {
		t.Fatalf("corrupt trailer: %v", c.Err())
	}
	c = NewCursor(rec[:5], errTrunc, errBounds)
	c.Bytes(3, 3, "body")
	if c.Trailer(errBad); !errors.Is(c.Err(), errTrunc) {
		t.Fatalf("cut trailer: %v", c.Err())
	}
}

func TestFloat64s(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1e-310, -math.MaxFloat64, 0.1}
	p := AppendFloat64s([]byte{0xaa}, xs)
	if p[0] != 0xaa || len(p) != 1+8*len(xs) {
		t.Fatalf("append clobbered or misplaced: %x", p)
	}
	dst := make([]float64, 0, 16)
	got, err := Float64s(dst, p[1:], errBad)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("dst capacity not reused")
	}
	for i := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("value %d: %v != %v", i, got[i], xs[i])
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Float64s(nil, AppendFloat64s(nil, []float64{1, bad}), errBad); !errors.Is(err, errBad) {
			t.Fatalf("%v accepted: %v", bad, err)
		}
	}
	if _, err := Float64s(nil, p[:9], errBad); err == nil {
		t.Fatal("ragged payload accepted")
	}
}

// TestCheckFloat64s: the branch-free scan must reject exactly the payloads
// Float64s rejects, naming the first non-finite value with the same text,
// for a non-finite value at every position of every length up to 67 —
// across the four-value unrolled body and the tail.
func TestCheckFloat64s(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff0_0000_0000_0001)}
	finite := []float64{0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.MaxFloat64, 0x1p1023, -1.5}
	for n := 0; n <= 67; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = finite[i%len(finite)]
		}
		if err := CheckFloat64s(AppendFloat64s(nil, xs), errBad); err != nil {
			t.Fatalf("length %d: finite payload rejected: %v", n, err)
		}
		for i := 0; i < n; i++ {
			ys := append([]float64(nil), xs...)
			ys[i] = specials[i%len(specials)]
			if i+2 < n {
				ys[i+2] = math.Inf(1) // a later bad value must not be the one named
			}
			p := AppendFloat64s(nil, ys)
			err := CheckFloat64s(p, errBad)
			_, derr := Float64s(nil, p, errBad)
			want := fmt.Sprintf("value %d of %d: %v", i, n, errBad)
			if !errors.Is(err, errBad) || err.Error() != want || derr == nil || derr.Error() != want {
				t.Fatalf("length %d, bad value at %d: check %v, decode %v, want %q", n, i, err, derr, want)
			}
		}
	}
	if err := CheckFloat64s(make([]byte, 17), errBad); err == nil || errors.Is(err, errBad) {
		t.Fatalf("ragged payload: %v", err)
	}
}

// TestAppendFloat64sVectorMatchesScalar: the dispatched encoder (the AVX2
// byte shuffle where available) against the portable loop, on random bit
// patterns of every length 0..67 appended behind 0..7 bytes of prefix.
func TestAppendFloat64sVectorMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 0; n <= 67; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(r.Uint64())
		}
		for pre := 0; pre < 8; pre++ {
			prefix := bytes.Repeat([]byte{0xa5}, pre)
			got := AppendFloat64s(bytes.Clone(prefix), xs)
			want := append(bytes.Clone(prefix), make([]byte, 8*n)...)
			putFloat64sGeneric(want[pre:], xs)
			if !bytes.Equal(got, want) {
				t.Fatalf("length %d, prefix %d:\n got %x\nwant %x", n, pre, got, want)
			}
		}
	}
}

// FuzzSplitMatchesDecoder checks that, on any input, the streaming decoder
// and the in-memory split accept the same frames and stop at the same bad
// one with the same sentinel, and that every accepted frame re-encodes to
// the bytes it was decoded from.
func FuzzSplitMatchesDecoder(f *testing.F) {
	valid := testStream()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(bytes.Clone(valid), 'z'))
	f.Add([]byte{'a', 0, 0, 0, 0xff})
	mauled := bytes.Clone(valid)
	mauled[Overhead+7] ^= 0x40
	f.Add(mauled)
	f.Fuzz(func(t *testing.T, data []byte) {
		stream, split, serr, perr := decodeAll(data)
		if len(stream) != len(split) {
			t.Fatalf("stream accepted %d frames, split %d", len(stream), len(split))
		}
		var re []byte
		for i := range stream {
			if stream[i].Type != split[i].Type || !bytes.Equal(stream[i].Payload, split[i].Payload) {
				t.Fatalf("frame %d differs: %+v vs %+v", i, stream[i], split[i])
			}
			if len(stream[i].Payload) > testMax {
				t.Fatalf("frame %d payload %d over the bound", i, len(stream[i].Payload))
			}
			re = appendFrame(re, stream[i].Type, stream[i].Payload)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatal("accepted frames do not re-encode to the consumed prefix")
		}
		if (serr == nil) != (perr == nil) {
			t.Fatalf("stream err %v, split err %v", serr, perr)
		}
		for _, s := range []error{errTrunc, errType, errTooLarge, errChecksum} {
			if errors.Is(serr, s) != errors.Is(perr, s) {
				t.Fatalf("stream err %v, split err %v: different class", serr, perr)
			}
		}
	})
}
