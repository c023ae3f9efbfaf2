package core

import (
	"testing"
)

func TestMarshalRoundTripValues(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.001, -123456.7890625, 1e15} {
		x, err := FromFloat64(Params384, v)
		if err != nil {
			t.Fatalf("FromFloat64(%g): %v", v, err)
		}
		data, err := x.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != MarshaledSize(Params384) {
			t.Errorf("encoded length %d, want %d", len(data), MarshaledSize(Params384))
		}
		var y HP
		if err := y.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !y.Equal(x) {
			t.Errorf("round trip of %g: limbs differ", v)
		}
		if y.Params() != Params384 {
			t.Errorf("params lost: %v", y.Params())
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	x, _ := FromFloat64(Params192, 1.5)
	good, _ := x.MarshalBinary()

	var y HP
	if err := y.UnmarshalBinary(nil); err == nil {
		t.Error("nil input accepted")
	}
	if err := y.UnmarshalBinary(good[:3]); err == nil {
		t.Error("truncated header accepted")
	}
	if err := y.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Error("truncated limbs accepted")
	}
	long := append(append([]byte{}, good...), 0)
	if err := y.UnmarshalBinary(long); err == nil {
		t.Error("oversized input accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] = 99
	if err := y.UnmarshalBinary(bad); err == nil {
		t.Error("unknown version accepted")
	}
	// Invalid params (K > N).
	inv := append([]byte{}, good...)
	inv[3], inv[4] = 0, 9
	if err := y.UnmarshalBinary(inv); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestRawLimbs(t *testing.T) {
	x, _ := FromFloat64(Params192, -2.75)
	raw := x.AppendRawLimbs(nil)
	if len(raw) != 8*3 {
		t.Fatalf("raw length %d", len(raw))
	}
	y := New(Params192)
	if err := y.SetRawLimbs(raw); err != nil {
		t.Fatal(err)
	}
	if !y.Equal(x) {
		t.Error("raw round trip differs")
	}
	if err := y.SetRawLimbs(raw[:8]); err == nil {
		t.Error("short raw buffer accepted")
	}
}

func TestAppendRawLimbsReusesBuffer(t *testing.T) {
	x, _ := FromFloat64(Params128, 7.0)
	buf := make([]byte, 0, 64)
	out := x.AppendRawLimbs(buf)
	if len(out) != 16 {
		t.Fatalf("length %d", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Error("append reallocated despite sufficient capacity")
	}
}

func TestMarshalTextRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -0.001, 12345.6875} {
		x, err := FromFloat64(Params384, v)
		if err != nil {
			t.Fatal(err)
		}
		text, err := x.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var y HP
		if err := y.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%s): %v", text, err)
		}
		if !y.Equal(x) {
			t.Errorf("text round trip of %g differs", v)
		}
	}
	// Format spot check.
	one, _ := FromFloat64(Params128, 1)
	text, _ := one.MarshalText()
	if string(text) != "hp:2,1:0000000000000001.0000000000000000" {
		t.Errorf("text = %s", text)
	}
}

func TestUnmarshalTextErrors(t *testing.T) {
	cases := []string{
		"",
		"nope",
		"hp:2:aa",
		"hp:x,1:0000000000000001.0000000000000000",
		"hp:2,y:0000000000000001.0000000000000000",
		"hp:2,3:0000000000000001.0000000000000000", // k > N
		"hp:2,1:0000000000000001",                  // wrong limb count
		"hp:2,1:0001.0000000000000000",             // short limb
		"hp:2,1:000000000000000g.0000000000000000", // bad hex
	}
	for _, c := range cases {
		var h HP
		if err := h.UnmarshalText([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

// A format too wide for the 16-bit N/K fields must fail to encode rather
// than wrap into an envelope that decodes to a different (or invalid)
// format.
func TestMarshalRejectsUnencodableFormat(t *testing.T) {
	for _, p := range []Params{{N: 1 << 16, K: 0}, {N: 1<<16 + 2, K: 1 << 16}} {
		if _, err := New(p).MarshalBinary(); err == nil {
			t.Errorf("(N=%d,k=%d) encoded without error", p.N, p.K)
		}
	}
	widest := Params{N: 1<<16 - 1, K: 1<<16 - 1}
	data, err := New(widest).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back HP
	if err := back.UnmarshalBinary(data); err != nil || back.Params() != widest {
		t.Fatalf("widest encodable format: %v %v", back.Params(), err)
	}
}
