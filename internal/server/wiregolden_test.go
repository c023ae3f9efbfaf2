package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Golden wire bytes. Each test encodes a fixed input and compares the bytes
// with hex captured once from the encoder, then decodes that hex back to
// the same values. A codec refactor that changes a single byte of any
// format fails here, so these tests pin the formats themselves, not just
// round-trip consistency.

const (
	goldenFloatFrame = "66" + "00000018" +
		"3ff8000000000000" + "c002000000000000" + "3d70000000000000" +
		"0905d7ce"
	goldenHPFrame = "68" + "00000015" +
		"0100020001" + "0000000000000002" + "0000000000000000" +
		"118a9f37"
	goldenTraceFrame = "54" + "00000010" +
		"1122334455667788" + "99aabbccddeeff00" +
		"871d54d9"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postSum decodes body through the one-shot /v1/sum endpoint: the ingest
// frame decoder, CRC check, payload decode and a serial fold.
func postSum(t *testing.T, s *Server, query string, body []byte) (int, Info) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sum"+query, bytes.NewReader(body))
	s.Handler().ServeHTTP(rec, req)
	var info Info
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, info
}

func TestGoldenIngestFrames(t *testing.T) {
	xs := []float64{1.5, -2.25, 0x1p-40}
	h, err := core.FromFloat64(core.Params128, 2)
	if err != nil {
		t.Fatal(err)
	}
	hEnc, err := AppendHPFrame(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	tctx := trace.Context{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"f", AppendFloatFrame(nil, xs), goldenFloatFrame},
		{"h", hEnc, goldenHPFrame},
		{"T", AppendTraceFrame(nil, tctx), goldenTraceFrame},
	} {
		if g := hex.EncodeToString(tc.got); g != tc.want {
			t.Errorf("%s frame bytes changed:\n got %s\nwant %s", tc.name, g, tc.want)
		}
	}

	s := New(Config{Shards: 1})
	defer s.Close()
	q := "?n=2&k=1"
	code, info := postSum(t, s, q, mustHex(t, goldenFloatFrame))
	if want := oracleText(t, core.Params128, xs); code != http.StatusOK || info.HP != want ||
		info.Adds != uint64(len(xs)) || info.Frames != 1 {
		t.Fatalf("float frame decoded to %d %+v, want %s", code, info, want)
	}
	code, info = postSum(t, s, q, mustHex(t, goldenHPFrame))
	if want := oracleText(t, core.Params128, []float64{2}); code != http.StatusOK || info.HP != want ||
		info.Adds != 0 || info.Frames != 1 {
		t.Fatalf("HP frame decoded to %d %+v, want %s", code, info, want)
	}
	// A trace frame is metadata: it decodes, counts nothing and sums nothing.
	stream := append(mustHex(t, goldenTraceFrame), mustHex(t, goldenFloatFrame)...)
	code, info = postSum(t, s, q, stream)
	if want := oracleText(t, core.Params128, xs); code != http.StatusOK || info.HP != want || info.Frames != 1 {
		t.Fatalf("trace+float stream decoded to %d %+v, want %s", code, info, want)
	}
}

// goldenSnapshot is a one-record audit chain: the genesis HPAR record
// (seq 0, zero prev_hash, reason "snapshot") holding two entries.
const goldenSnapshot = "48504152" + "01" +
	// prev_hash (zero), seq 0, reason "snapshot", two entries.
	"0000000000000000000000000000000000000000000000000000000000000000" + "0000000000000000" +
	"08" + "736e617073686f74" + "00000002" +
	// "keep": frames 2, adds 3, no error text, the digest and envelope of 0.5.
	"0004" + "6b656570" + "0000000000000002" + "0000000000000003" + "0000" +
	"3bd25a8ef440b1569db48ce29e002f74ff6d7866c510f9d3a27de20d03e180c0" +
	"00000015" + "0100020001" + "0000000000000000" + "8000000000000000" +
	// "small": frames 1, adds 1, error text "core: HP underflow", the
	// digest and envelope of 0.
	"0005" + "736d616c6c" + "0000000000000001" + "0000000000000001" +
	"0012" + "636f72653a20485020756e646572666c6f77" +
	"1c21e08ae62358813c6831a733840f8d8ba7c9e540a8825da7a482657ef42136" +
	"00000015" + "0100020001" + "0000000000000000" + "0000000000000000" +
	"b544899c"

func TestGoldenSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.state")
	if err := os.WriteFile(path, mustHex(t, goldenSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Shards: 1})
	defer s.Close()
	n, err := s.Restore(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d accumulators, want 2", n)
	}
	keep, err := s.Lookup("keep").State()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleText(t, core.Params128, []float64{0.5}); keep.HP != want || keep.Adds != 3 ||
		keep.Frames != 2 || keep.Err != "" {
		t.Fatalf("keep restored as %+v, want HP %s", keep, want)
	}
	small, err := s.Lookup("small").State()
	if err != nil {
		t.Fatal(err)
	}
	if small.Adds != 1 || small.Frames != 1 || small.Err != "core: HP underflow" {
		t.Fatalf("small restored as %+v", small)
	}

	out := filepath.Join(dir, "again.state")
	if err := s.Snapshot(out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if g := hex.EncodeToString(got); g != goldenSnapshot {
		t.Fatalf("snapshot bytes changed:\n got %s\nwant %s", g, goldenSnapshot)
	}
}

const goldenJournal = "" +
	// Seed entry: 'E' 's', name "acc", frames 7, adds 21, an HP envelope of 2.
	"4573" + "0003" + "616363" + "0000000000000007" + "0000000000000015" +
	"00000015" + "0100020001" + "0000000000000002" + "0000000000000000" + "3a073b7e" +
	// Floats entry: 'E' 'f', name "acc", two float64 values.
	"4566" + "0003" + "616363" + "00000010" + "3ff8000000000000" + "c002000000000000" + "66d12871"

func TestGoldenJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.hpfj")
	j, err := audit.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	aud := &auditState{journal: j}
	h, err := core.FromFloat64(core.Params128, 2)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{1.5, -2.25}
	if err := aud.journalSeed("acc", engineState{sum: h, adds: 21, frames: 7}); err != nil {
		t.Fatal(err)
	}
	if err := aud.journalOp("acc", op{payload: wire.AppendFloat64s(nil, xs)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g := hex.EncodeToString(got); g != goldenJournal {
		t.Fatalf("journal bytes changed:\n got %s\nwant %s", g, goldenJournal)
	}

	jr := audit.NewJournalReader(bytes.NewReader(mustHex(t, goldenJournal)))
	seed, err := jr.Next()
	if err != nil {
		t.Fatal(err)
	}
	var back core.HP
	if err := back.UnmarshalBinary(seed.Payload); err != nil {
		t.Fatal(err)
	}
	if seed.Kind != audit.JournalSeed || seed.Name != "acc" || seed.Frames != 7 || seed.Adds != 21 ||
		!back.Equal(h) {
		t.Fatalf("seed entry decoded to %+v", seed)
	}
	fe, err := jr.Next()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := fe.Floats()
	if err != nil {
		t.Fatal(err)
	}
	if fe.Kind != audit.JournalFloats || fe.Name != "acc" || len(vals) != 2 || vals[0] != xs[0] || vals[1] != xs[1] {
		t.Fatalf("floats entry decoded to %+v %v", fe, vals)
	}
	if _, err := jr.Next(); err != io.EOF {
		t.Fatalf("after two entries: %v, want io.EOF", err)
	}
}
