package gossip

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// Golden wire bytes for gossip frames (one message per kind) and the HPGC
// checkpoint blob: fixed inputs must encode to hex captured once from the
// encoder, and that hex must decode back to the same values. A codec
// refactor that changes a single byte of either format fails here.

// goldenEnv is the server FrameHP hand-off envelope of 2 in the 128-bit
// format: 'h' | len 21 | HP envelope | crc32.
const goldenEnv = "6800000015" + "0100020001" + "0000000000000002" + "0000000000000000" + "118a9f37"

func goldenMessages(t *testing.T) []*Message {
	t.Helper()
	env, err := hex.DecodeString(goldenEnv)
	if err != nil {
		t.Fatal(err)
	}
	a := Peer{ID: "node-a", Addr: "a:1"}
	b := Peer{ID: "node-b", Addr: "b:2"}
	dg := Digest{Acc: "x", Node: "node-a", Epoch: 7, Version: 3, Sum: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}
	en := Entry{Acc: "x", Node: "node-a", Epoch: 7, Version: 3, Adds: 5, Frames: 3, Env: env}
	return []*Message{
		{Kind: MsgPush, From: a, Epoch: 7, Trace: trace.Context{TraceID: 1, SpanID: 2},
			View: []Peer{b}, Digests: []Digest{dg}},
		{Kind: MsgPullReq, From: b, Epoch: 2, Digests: []Digest{dg}},
		{Kind: MsgPullRep, From: a, Epoch: 7, View: []Peer{b}, Digests: []Digest{dg}, Entries: []Entry{en}},
		{Kind: MsgDelta, From: a, Epoch: 7, Entries: []Entry{en}},
		{Kind: MsgLeave, From: Peer{ID: "node-c"}, Epoch: 1},
	}
}

var goldenMessageHex = []string{
	`
		500000005801066e6f64652d610003613a310000000000000007000000000000
		000100000000000000020001066e6f64652d620003623a3200010178066e6f64
		652d610000000000000007000000000000000301020304050607080000b567fe
		1b`,
	`
		510000004c01066e6f64652d620003623a320000000000000002000000000000
		00000000000000000000000000010178066e6f64652d61000000000000000700
		0000000000000301020304050607080000387ddf4b`,
	`
		52000000a301066e6f64652d610003613a310000000000000007000000000000
		000000000000000000000001066e6f64652d620003623a3200010178066e6f64
		652d610000000000000007000000000000000301020304050607080001017806
		6e6f64652d610000000000000007000000000000000300000000000000050000
		0000000000030000001e68000000150100020001000000000000000200000000
		00000000118a9f3703a3e1d9`,
	`
		440000007601066e6f64652d610003613a310000000000000007000000000000
		000000000000000000000000000000010178066e6f64652d6100000000000000
		070000000000000003000000000000000500000000000000030000001e680000
		0015010002000100000000000000020000000000000000118a9f3771d5c94c`,
	`
		4c0000002801066e6f64652d6300000000000000000001000000000000000000
		0000000000000000000000000098724024`,
}

func TestGoldenMessages(t *testing.T) {
	for i, m := range goldenMessages(t) {
		want := strings.Join(strings.Fields(goldenMessageHex[i]), "")
		got, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if g := hex.EncodeToString(got); g != want {
			t.Errorf("kind %q bytes changed:\n got %s\nwant %s", m.Kind, g, want)
			continue
		}
		data, _ := hex.DecodeString(want)
		back, n, err := DecodeMessage(data)
		if err != nil {
			t.Fatalf("kind %q: %v", m.Kind, err)
		}
		if n != len(data) || !reflect.DeepEqual(back, m) {
			t.Errorf("kind %q decoded to %+v (%d of %d bytes), want %+v", m.Kind, back, n, len(data), m)
		}
	}
}

const goldenCheckpointBlob = `
	48504743010000000000000009000000020178066e6f64652d61000000000000
	00070000000000000003000000000000000500000000000000030000001e6800
	000015010002000100000000000000020000000000000000118a9f370179066e
	6f64652d62000000000000000200000000000000010000000000000001000000
	00000000010000001e68000000150100020001ffffffffffffffff8000000000
	000000fb29bf5138bf6dfe`

func TestGoldenCheckpointBlob(t *testing.T) {
	s := NewStore(core.Params128)
	for _, e := range goldenMessages(t)[2].Entries {
		if _, err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	h, err := core.FromFloat64(core.Params128, -0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutOwn("y", "node-b", 2, h, 1, 1); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Checkpoint(9)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(strings.Fields(goldenCheckpointBlob), "")
	if g := hex.EncodeToString(blob); g != want {
		t.Fatalf("checkpoint blob bytes changed:\n got %s\nwant %s", g, want)
	}
	data, _ := hex.DecodeString(want)
	back := NewStore(core.Params128)
	epoch, err := back.RestoreCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 9 || !reflect.DeepEqual(back.entries, s.entries) {
		t.Fatalf("checkpoint decoded to epoch %d entries %+v, want 9 %+v", epoch, back.entries, s.entries)
	}
}
