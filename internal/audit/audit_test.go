package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/rng"
)

// envFor sums xs serially and returns the canonical envelope plus counters.
func envFor(t *testing.T, p core.Params, xs []float64, frames uint64) Entry {
	t.Helper()
	acc := core.NewSuper(p)
	acc.AddSlice(xs)
	env, err := acc.Sum().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return Entry{Name: "acc", Frames: frames, Adds: uint64(len(xs)), Digest: DigestEnv(env), Env: env}
}

func TestRecordRoundTrip(t *testing.T) {
	xs := rng.UniformSet(rng.New(1), 100, -1, 1)
	e := envFor(t, core.Params384, xs, 3)
	e.ErrText = "sticky"
	r := &Record{Seq: 0, Reason: "sigterm", Entries: []Entry{e}}
	buf, err := EncodeRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if got.Hash != r.Hash || got.Seq != 0 || got.Reason != "sigterm" {
		t.Fatalf("record mismatch: %+v", got)
	}
	ge := got.Entries[0]
	if ge.Name != "acc" || ge.Frames != 3 || ge.Adds != uint64(len(xs)) ||
		ge.ErrText != "sticky" || !bytes.Equal(ge.Env, e.Env) {
		t.Fatalf("entry mismatch: %+v", ge)
	}
}

func TestLogChainAppendAndValidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.hpal")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(2), 50, -1, 1)
	for i := 0; i < 3; i++ {
		if _, err := l.Append("periodic", []Entry{envFor(t, core.Params384, xs[:10*(i+1)], uint64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Reopen resumes the chain.
	l2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.NextSeq() != 3 {
		t.Fatalf("next seq %d, want 3", l2.NextSeq())
	}
	if _, err := l2.Append("sigterm", []Entry{envFor(t, core.Params384, xs, 5)}); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ReadLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("%d records, want 4", len(records))
	}
	for i, r := range records {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if i > 0 && r.PrevHash != records[i-1].Hash {
			t.Fatalf("record %d prev_hash does not chain", i)
		}
	}
}

// TestLogTruncationTable truncates a two-record log at every section
// boundary (and one byte past each) and requires a contextual error, no
// panic, and — for mid-chain damage — a report naming the broken link.
func TestLogTruncationTable(t *testing.T) {
	xs := rng.UniformSet(rng.New(3), 40, -1, 1)
	r0 := &Record{Seq: 0, Reason: "periodic", Entries: []Entry{envFor(t, core.Params384, xs[:20], 1)}}
	buf, err := EncodeRecord(nil, r0)
	if err != nil {
		t.Fatal(err)
	}
	rec0Len := len(buf)
	r1 := &Record{Seq: 1, PrevHash: r0.Hash, Reason: "sigterm", Entries: []Entry{envFor(t, core.Params384, xs, 2)}}
	buf, err = EncodeRecord(buf, r1)
	if err != nil {
		t.Fatal(err)
	}

	// Section boundaries of record 1 (offsets relative to the file).
	base := rec0Len
	nameLen := len("acc")
	boundaries := []struct {
		desc string
		off  int
	}{
		{"mid-magic", base + 2},
		{"after-version", base + 5},
		{"mid-prevhash", base + 5 + 16},
		{"after-prevhash", base + 5 + HashLen},
		{"after-seq", base + 5 + HashLen + 8},
		{"after-reason", base + 5 + HashLen + 8 + 1 + len("sigterm")},
		{"after-count", base + 5 + HashLen + 8 + 1 + len("sigterm") + 4},
		{"mid-name", base + 5 + HashLen + 8 + 1 + len("sigterm") + 4 + 2 + 1},
		{"after-counters", base + 5 + HashLen + 8 + 1 + len("sigterm") + 4 + 2 + nameLen + 16},
		{"mid-digest", base + 5 + HashLen + 8 + 1 + len("sigterm") + 4 + 2 + nameLen + 16 + 2 + 10},
		{"mid-env", len(buf) - 20},
		{"mid-crc", len(buf) - 2},
	}
	for _, b := range boundaries {
		trunc := buf[:b.off]
		records, err := ReadLog(trunc)
		if err == nil {
			t.Fatalf("%s (offset %d): truncation accepted", b.desc, b.off)
		}
		if len(records) != 1 {
			t.Fatalf("%s: %d intact records decoded, want 1", b.desc, len(records))
		}
		if !strings.Contains(err.Error(), "record 1") {
			t.Fatalf("%s: error %q does not name the broken record", b.desc, err)
		}
	}
}

// TestLogCorruptionTable flips bits across the encoded log via the fault
// injector's corruption primitive and requires every damaged image to be
// rejected with a contextual error and no panic. (A flip confined to a
// record's reason text would still be caught: the CRC covers every byte.)
func TestLogCorruptionTable(t *testing.T) {
	xs := rng.UniformSet(rng.New(4), 60, -1, 1)
	r0 := &Record{Seq: 0, Reason: "periodic", Entries: []Entry{envFor(t, core.Params384, xs, 1)}}
	buf, err := EncodeRecord(nil, r0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(99)
	for trial := 0; trial < 64; trial++ {
		bad := faults.CorruptBytes(src, append([]byte(nil), buf...))
		if bytes.Equal(bad, buf) {
			continue
		}
		records, err := ReadLog(bad)
		if err == nil && len(records) == 1 && records[0].Hash == r0.Hash {
			t.Fatalf("trial %d: corrupted log decoded to the original record", trial)
		}
		if err == nil {
			t.Fatalf("trial %d: corrupted log accepted", trial)
		}
	}
}

func TestJournalRoundTripAndCorruption(t *testing.T) {
	var buf []byte
	var err error
	xs := []float64{1.5, -2.25, 3.75}
	fe := &JournalEntry{Kind: JournalFloats, Name: "acc"}
	var fb []byte
	for _, x := range xs {
		fb = appendFloatBits(fb, x)
	}
	fe.Payload = fb
	buf, err = AppendJournalEntry(buf, fe)
	if err != nil {
		t.Fatal(err)
	}
	h := core.New(core.Params384)
	env, _ := h.MarshalBinary()
	buf, err = AppendJournalEntry(buf, &JournalEntry{Kind: JournalSeed, Name: "acc", Frames: 7, Adds: 21, Payload: env})
	if err != nil {
		t.Fatal(err)
	}

	jr := NewJournalReader(bytes.NewReader(buf))
	e1, err := jr.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := e1.Floats()
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], xs[i])
		}
	}
	e2, err := jr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if e2.Kind != JournalSeed || e2.Frames != 7 || e2.Adds != 21 || !bytes.Equal(e2.Payload, env) {
		t.Fatalf("seed entry mismatch: %+v", e2)
	}
	if _, err := jr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected clean EOF, got %v", err)
	}

	// Truncation at every byte: contextual error, never a panic, and the
	// intact prefix still decodes.
	for cut := 1; cut < len(buf); cut++ {
		jr := NewJournalReader(bytes.NewReader(buf[:cut]))
		for {
			_, err := jr.Next()
			if err == nil {
				continue
			}
			if errors.Is(err, io.EOF) {
				// Clean EOF is only legitimate at an entry boundary.
				if cut != journalEntryLen(t, fe) {
					t.Fatalf("cut %d: clean EOF inside an entry", cut)
				}
			}
			break
		}
	}
	// Bit flips: every corrupted image must be rejected.
	src := rng.New(7)
	for trial := 0; trial < 64; trial++ {
		bad := faults.CorruptBytes(src, append([]byte(nil), buf...))
		if bytes.Equal(bad, buf) {
			continue
		}
		jr := NewJournalReader(bytes.NewReader(bad))
		ok := true
		for {
			_, err := jr.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					ok = false
				}
				break
			}
		}
		if ok {
			t.Fatalf("trial %d: corrupted journal fully accepted", trial)
		}
	}
}

func journalEntryLen(t *testing.T, e *JournalEntry) int {
	t.Helper()
	b, err := AppendJournalEntry(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

func appendFloatBits(buf []byte, x float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
}
