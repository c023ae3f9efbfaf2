package gossip

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// testEnv builds a valid server FrameHP envelope for the given values.
func testEnv(t testing.TB, p core.Params, xs ...float64) []byte {
	t.Helper()
	a := core.NewAccumulator(p)
	a.AddAll(xs)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	env, err := server.AppendHPFrame(nil, a.Sum())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func testMessage(t testing.TB) *Message {
	t.Helper()
	return &Message{
		Kind:  MsgPullRep,
		From:  Peer{ID: "node-a", Addr: "http://127.0.0.1:9001"},
		Epoch: 7,
		Trace: trace.Context{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00},
		View: []Peer{
			{ID: "node-b", Addr: "http://127.0.0.1:9002"},
			{ID: "node-c", Addr: "http://127.0.0.1:9003"},
		},
		Digests: []Digest{
			{Acc: "metrics", Node: "node-a", Epoch: 7, Version: 42,
				Sum: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Acc: "metrics", Node: "node-b", Epoch: 3, Version: 9,
				Sum: [8]byte{8, 7, 6, 5, 4, 3, 2, 1}},
		},
		Entries: []Entry{
			{Acc: "metrics", Node: "node-a", Epoch: 7, Version: 42, Adds: 1000, Frames: 42,
				Env: testEnv(t, core.Params384, 1.5, -0.25, 1e-9)},
		},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	want := testMessage(t)
	frame, err := AppendMessage(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, used, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(frame) {
		t.Fatalf("consumed %d of %d bytes", used, len(frame))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Two concatenated frames decode as a stream.
	double, err := AppendMessage(append([]byte(nil), frame...), want)
	if err != nil {
		t.Fatal(err)
	}
	m1, u1, err := DecodeMessage(double)
	if err != nil {
		t.Fatal(err)
	}
	m2, u2, err := DecodeMessage(double[u1:])
	if err != nil {
		t.Fatal(err)
	}
	if u1+u2 != len(double) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("concatenated frames did not decode identically")
	}
}

// TestMessageTruncation: every strict prefix of a valid frame must fail to
// decode — no prefix may silently parse as a shorter valid message.
func TestMessageTruncation(t *testing.T) {
	frame, err := AppendMessage(nil, testMessage(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, _, err := DecodeMessage(frame[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(frame))
		}
	}
}

// TestMessageBitFlips: every single-bit corruption of a valid frame must be
// rejected — the CRC covers the kind, the length, and the whole payload, so
// no flipped bit can yield a clean decode.
func TestMessageBitFlips(t *testing.T) {
	frame, err := AppendMessage(nil, testMessage(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			if _, _, err := DecodeMessage(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
			}
		}
	}
}

// reframe recomputes the length and CRC trailer after a payload mutation,
// so the table below tests the payload validators rather than the checksum.
func reframe(frame []byte) []byte {
	body := frame[:len(frame)-wire.TrailerLen]
	binary.BigEndian.PutUint32(body[1:5], uint32(len(body)-wire.HeaderLen))
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func TestMessageDecodeTable(t *testing.T) {
	valid, err := AppendMessage(nil, testMessage(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error // nil = any non-nil error
	}{
		{"empty", func(f []byte) []byte { return nil }, ErrFrameTrunc},
		{"header only", func(f []byte) []byte { return f[:wire.HeaderLen] }, ErrFrameTrunc},
		{"unknown kind", func(f []byte) []byte {
			f[0] = 'Z'
			return reframe(f)
		}, ErrFrameKind},
		{"bad wire version", func(f []byte) []byte {
			f[wire.HeaderLen] = 99
			return reframe(f)
		}, ErrFrameVersion},
		{"oversize length prefix", func(f []byte) []byte {
			binary.BigEndian.PutUint32(f[1:5], MaxFramePayload+1)
			return f
		}, ErrFrameTooLarge},
		{"length prefix past buffer", func(f []byte) []byte {
			binary.BigEndian.PutUint32(f[1:5], uint32(len(f)))
			return f
		}, ErrFrameTrunc},
		{"corrupt payload byte", func(f []byte) []byte {
			f[wire.HeaderLen+3] ^= 0xff
			return f
		}, ErrFrameChecksum},
		{"trailing garbage inside payload", func(f []byte) []byte {
			f = append(f[:len(f)-wire.TrailerLen], 0xde, 0xad)
			return reframe(f)
		}, ErrFrameTrunc},
		{"view count beyond bound", func(f []byte) []byte {
			// View count sits after version + From peer + epoch + trace.
			off := wire.HeaderLen + 1 + (1 + len("node-a")) + (2 + len("http://127.0.0.1:9001")) + 8 + 16
			binary.BigEndian.PutUint16(f[off:], MaxViewEntries+1)
			return reframe(f)
		}, ErrFrameBounds},
		{"view count claims more than present", func(f []byte) []byte {
			off := wire.HeaderLen + 1 + (1 + len("node-a")) + (2 + len("http://127.0.0.1:9001")) + 8 + 16
			binary.BigEndian.PutUint16(f[off:], 60)
			return reframe(f)
		}, nil}, // garbage parsed as peers: bounds or truncation, either rejects
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeMessage(tc.mutate(append([]byte(nil), valid...)))
			if err == nil {
				t.Fatal("corrupt frame decoded successfully")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestMessageEncodeBounds(t *testing.T) {
	big := testMessage(t)
	big.Entries = nil
	for i := 0; i <= MaxDigests; i++ {
		big.Digests = append(big.Digests, Digest{Acc: "a", Node: "n", Version: uint64(i)})
	}
	if _, err := AppendMessage(nil, big); !errors.Is(err, ErrFrameBounds) {
		t.Fatalf("got %v, want ErrFrameBounds", err)
	}

	m := testMessage(t)
	m.From.ID = strings.Repeat("x", maxIDLen+1)
	if _, err := AppendMessage(nil, m); err == nil {
		t.Fatal("oversize peer id encoded successfully")
	}
	m = testMessage(t)
	m.Kind = 'X'
	if _, err := AppendMessage(nil, m); !errors.Is(err, ErrFrameKind) {
		t.Fatal("unknown kind encoded successfully")
	}
}
