package server

import (
	"bufio"
	"os"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Codec layer benchmarks on 4096-value frames, the frame size the
// ingest-bulk workload streams: the client-side encode, the server-side
// decode (length bound, CRC and the float64 payload's finiteness scan),
// and the per-frame journal append an audited ingest pays. The journal
// writes to the null device so the number is codec cost, not disk.

const benchFrameValues = 4096

func benchValues() []float64 {
	return rng.UniformSet(rng.New(1), benchFrameValues, -1, 1)
}

func BenchmarkAppendFloatFrame(b *testing.B) {
	xs := benchValues()
	buf := make([]byte, 0, wire.Overhead+8*len(xs))
	b.SetBytes(int64(8 * len(xs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFloatFrame(buf[:0], xs)
	}
}

// loopReader yields its frame bytes over and over, so one decoder runs in
// steady state (buffer reused) across every iteration.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// BenchmarkFrameDecode reads and verifies each frame and scans its payload
// for non-finite values, as the ingest handler does before folding the
// payload in place, so a per-frame allocation on that path shows here.
func BenchmarkFrameDecode(b *testing.B) {
	frame := AppendFloatFrame(nil, benchValues())
	dec := wire.NewDecoder(bufio.NewReader(&loopReader{b: frame}), &IngestFrames, MaxFramePayload)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := dec.Next()
		if err != nil {
			b.Fatal(err)
		}
		if err = wire.CheckFloat64s(f.Payload, core.ErrNotFinite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	j, err := audit.OpenJournal(os.DevNull)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	aud := &auditState{journal: j}
	o := op{payload: wire.AppendFloat64s(nil, benchValues())}
	b.SetBytes(int64(len(o.payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := aud.journalOp("bench", o); err != nil {
			b.Fatal(err)
		}
	}
}
