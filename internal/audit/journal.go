package audit

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// JournalSchema identifies the frame-journal format.
const JournalSchema = "repro/frame-journal/v1"

// Frame journal wire format — one self-checking entry per accepted ingest
// frame (or restore hand-off):
//
//	'E' | kind(1) | nameLen(2) | name | [frames(8) | adds(8), seed only] |
//	payloadLen(4) | payload | crc32(4)
//
// with kind one of
//
//	'f' — an accepted float64 batch frame; payload is 8 bytes per value,
//	      big-endian IEEE-754 bit patterns (the ingest wire encoding);
//	'h' — an accepted HP hand-off frame; payload is the core.HP
//	      MarshalBinary envelope;
//	's' — a restore seed: the daemon reloaded this accumulator from a
//	      snapshot whose exact state is the payload envelope, with the
//	      frames/adds counters it carried. A seed is not an accepted frame;
//	      replay resets the accumulator to the seed state and counters.
//
// The CRC-32 (IEEE) covers every preceding byte of the entry. Entries for
// one accumulator appear in admission order, and every audit-log watermark
// is taken at a quiescent point, so the first W journaled frames of an
// accumulator are exactly the W frames its audit record attests to.
const (
	JournalFloats byte = 'f'
	JournalHP     byte = 'h'
	JournalSeed   byte = 's'

	journalEntryMark byte = 'E'
)

// MaxJournalPayload bounds one journal entry's payload, mirroring the
// ingest layer's frame cap so a corrupt length prefix cannot balloon
// allocation.
const MaxJournalPayload = 1 << 20

// Journal decoding errors.
var (
	ErrJournalTruncated = errors.New("audit: truncated journal entry")
	ErrJournalCorrupt   = errors.New("audit: corrupt journal entry")
)

// JournalEntry is one decoded journal entry. Payload aliases the reader's
// internal buffer and is only valid until the next call to Next.
type JournalEntry struct {
	Kind    byte
	Name    string
	Frames  uint64 // seed entries only: restored frame watermark
	Adds    uint64 // seed entries only: restored value count
	Payload []byte
}

// Floats decodes a JournalFloats payload.
func (e *JournalEntry) Floats() ([]float64, error) {
	if e.Kind != JournalFloats {
		return nil, fmt.Errorf("audit: Floats on journal kind %q", e.Kind)
	}
	xs, err := wire.Float64s(nil, e.Payload, core.ErrNotFinite)
	if err != nil {
		return nil, fmt.Errorf("%w: float entry: %w", ErrJournalCorrupt, err)
	}
	return xs, nil
}

// checkFloats validates a JournalFloats payload as Floats does, without
// decoding it: replay folds the verified bytes in place.
func (e *JournalEntry) checkFloats() error {
	if err := wire.CheckFloat64s(e.Payload, core.ErrNotFinite); err != nil {
		return fmt.Errorf("%w: float entry: %w", ErrJournalCorrupt, err)
	}
	return nil
}

// AppendJournalEntry appends e's wire image to buf and returns the extended
// slice.
func AppendJournalEntry(buf []byte, e *JournalEntry) ([]byte, error) {
	start := len(buf)
	buf, err := appendJournalHead(buf, e, len(e.Payload))
	if err != nil {
		return buf, err
	}
	return wire.Seal(append(buf, e.Payload...), start), nil
}

// appendJournalHead appends e's wire image up to and including a payload
// length of plen (e.Payload itself is not read); the caller appends the
// plen payload bytes and seals the entry.
func appendJournalHead(buf []byte, e *JournalEntry, plen int) ([]byte, error) {
	if len(e.Name) == 0 || len(e.Name) > maxNameLen {
		return buf, fmt.Errorf("audit: journal entry name of %d bytes", len(e.Name))
	}
	if plen > MaxJournalPayload {
		return buf, fmt.Errorf("audit: journal payload of %d bytes exceeds %d", plen, MaxJournalPayload)
	}
	switch e.Kind {
	case JournalFloats, JournalHP, JournalSeed:
	default:
		return buf, fmt.Errorf("audit: unknown journal kind %q", e.Kind)
	}
	buf = append(buf, journalEntryMark, e.Kind)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Name)))
	buf = append(buf, e.Name...)
	if e.Kind == JournalSeed {
		buf = binary.BigEndian.AppendUint64(buf, e.Frames)
		buf = binary.BigEndian.AppendUint64(buf, e.Adds)
	}
	return binary.BigEndian.AppendUint32(buf, uint32(plen)), nil
}

// JournalReader streams entries from a journal image.
type JournalReader struct {
	r   *bufio.Reader
	buf []byte
	off int // bytes consumed so far, for error context
}

// NewJournalReader returns a reader over r.
func NewJournalReader(r io.Reader) *JournalReader {
	return &JournalReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Offset returns the byte offset of the next entry.
func (jr *JournalReader) Offset() int { return jr.off }

// Next reads and verifies the next entry. It returns io.EOF at a clean end
// (no partial entry), ErrJournalTruncated-wrapped errors for mid-entry
// truncation, and ErrJournalCorrupt-wrapped errors for damage. The returned
// entry's Payload is only valid until the following call.
func (jr *JournalReader) Next() (*JournalEntry, error) {
	// The entry is read in steps, each sized by the one before: the mark;
	// kind and name length; name, seed counters and payload length; payload
	// and CRC. jr.buf keeps the whole image for the CRC.
	jr.buf = jr.buf[:0]
	if err := jr.fill(1); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, jr.truncated(err)
	}
	if jr.buf[0] != journalEntryMark {
		return nil, fmt.Errorf("%w at offset %d: bad entry mark 0x%02x", ErrJournalCorrupt, jr.off, jr.buf[0])
	}
	if err := jr.fill(4); err != nil {
		return nil, jr.truncated(err)
	}
	nameLen := int(binary.BigEndian.Uint16(jr.buf[2:]))
	if nameLen == 0 || nameLen > maxNameLen {
		return nil, fmt.Errorf("%w at offset %d: name length %d", ErrJournalCorrupt, jr.off, nameLen)
	}
	pre := 4 + nameLen + 4
	if jr.buf[1] == JournalSeed {
		pre += 16
	}
	if err := jr.fill(pre); err != nil {
		return nil, jr.truncated(err)
	}
	plen := int(binary.BigEndian.Uint32(jr.buf[pre-4:]))
	if plen > MaxJournalPayload {
		return nil, fmt.Errorf("%w at offset %d: payload length %d exceeds %d", ErrJournalCorrupt, jr.off, plen, MaxJournalPayload)
	}
	if err := jr.fill(pre + plen + wire.TrailerLen); err != nil {
		return nil, jr.truncated(err)
	}
	body, err := wire.Verify(jr.buf, ErrJournalCorrupt)
	if err != nil {
		return nil, fmt.Errorf("%w at offset %d", err, jr.off)
	}

	c := wire.NewCursor(body[1:], ErrJournalCorrupt, ErrJournalCorrupt)
	e := &JournalEntry{Kind: c.U8()}
	e.Name = string(c.Bytes(int(c.U16()), maxNameLen, "name"))
	switch e.Kind {
	case JournalFloats, JournalHP:
	case JournalSeed:
		e.Frames = c.U64()
		e.Adds = c.U64()
	default:
		return nil, fmt.Errorf("%w at offset %d: unknown kind 0x%02x", ErrJournalCorrupt, jr.off, e.Kind)
	}
	e.Payload = c.Bytes(int(c.U32()), MaxJournalPayload, "payload")
	if err := c.Err(); err != nil {
		return nil, err
	}
	jr.off += len(jr.buf)
	return e, nil
}

// fill extends jr.buf to n bytes read from the stream.
func (jr *JournalReader) fill(n int) error {
	have := len(jr.buf)
	jr.buf = append(jr.buf, make([]byte, n-have)...)
	_, err := io.ReadFull(jr.r, jr.buf[have:])
	return err
}

// truncated reports a stream that ended inside the entry at jr.off.
func (jr *JournalReader) truncated(err error) error {
	return fmt.Errorf("%w at offset %d: %v", ErrJournalTruncated, jr.off, err)
}

// Journal is the daemon-side appender: a mutex-serialized append-only file.
// Entries are written in admission order; Sync makes the written prefix
// durable before an audit record referencing it is chained.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte
}

// OpenJournal opens (or creates) the journal at path for appending.
// Restarted daemons reuse the same path so per-accumulator frame counts
// continue the recorded sequence.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Append writes one entry. It is safe for concurrent use; the entry is
// fully written (single Write call) before the mutex is released, so
// entries never interleave.
func (j *Journal) Append(e *JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf, err := AppendJournalEntry(j.buf[:0], e)
	if err != nil {
		return err
	}
	return j.write(buf)
}

// write keeps buf's storage for the next entry and writes buf out. Caller
// holds mu.
func (j *Journal) write(buf []byte) error {
	j.buf = buf[:0]
	_, err := j.f.Write(buf)
	return err
}

// Sync fsyncs the journal file.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
