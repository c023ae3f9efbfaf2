// Package audit makes the summation service externally verifiable. Because
// the HP representation is order-invariant and exact, "did the server sum
// what it accepted?" has a binary answer: replaying the accepted frames
// through any conforming accumulator must reproduce the served limbs bit
// for bit. The package provides the two durable artifacts that turn this
// property into an enforced audit trail, plus the replayer that checks one
// against the other:
//
//   - a hash-linked audit log (schema repro/audit-log/v1): every snapshot
//     the daemon takes — SIGTERM and periodic — appends one record carrying
//     the per-accumulator frame-count watermark, the SHA-256 digest of the
//     canonical HP envelope, and the envelope itself, chained to the
//     previous record by its SHA-256 so no record can be altered, dropped,
//     or reordered without breaking every later link;
//
//   - a frame journal (schema repro/frame-journal/v1): an append-only
//     record of every accepted ingest frame (and every restore hand-off),
//     in per-accumulator admission order, so the exact accepted multiset is
//     re-summable offline.
//
// cmd/hpaudit replays the journal against the log: for each record it folds
// journal entries until the accumulator's frame count reaches the record's
// watermark and then requires the replayed envelope to equal the recorded
// one bit for bit — any tampering, lost frame, or wrong serve shows up as a
// named divergent link.
package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/wire"
)

// Schema identifies the audit-log record format.
const Schema = "repro/audit-log/v1"

// Audit log wire format. A log file is a concatenation of records:
//
//	magic "HPAR" | version(1) | prevHash(32) | seq(8, big-endian) |
//	reasonLen(1) | reason | count(4) | entries | crc32(4)
//
// with each entry
//
//	nameLen(2) | name | frames(8) | adds(8) | errLen(2) | err |
//	digest(32) | envLen(4) | env
//
// where env is the accumulator's canonical core.HP MarshalBinary envelope at
// the snapshot point, digest = SHA-256(env), frames is the accepted-frame
// watermark, and the CRC-32 (IEEE, the repo-wide convention) covers every
// preceding byte of the record. A record's hash — the value the *next*
// record's prevHash must equal — is the SHA-256 of its complete bytes,
// CRC included. The genesis record carries an all-zero prevHash and seq 0.
const (
	recordMagic   = "HPAR"
	recordVersion = 1

	// HashLen is the length of record hashes and envelope digests.
	HashLen = sha256.Size

	maxReasonLen = 255
	maxNameLen   = 128

	// MaxEnvLen bounds one entry's canonical HP envelope. A server only
	// admits formats whose envelope fits, so every accumulator's state can
	// be attested and snapshotted.
	MaxEnvLen = 1 << 16
)

// Decoding errors; all decode failures wrap one of these with positional
// context so an auditor can name the first broken link.
var (
	ErrLogTruncated = errors.New("audit: truncated log record")
	ErrLogCorrupt   = errors.New("audit: corrupt log record")
	ErrChainBroken  = errors.New("audit: hash chain broken")
)

// Entry is one accumulator's state within a Record.
type Entry struct {
	Name    string
	Frames  uint64 // accepted-frame watermark at the snapshot point
	Adds    uint64 // accepted float64 values
	ErrText string // sticky accumulator error, if any
	Digest  [HashLen]byte
	Env     []byte // canonical core.HP MarshalBinary envelope
}

// Record is one link of the audit log.
type Record struct {
	Seq      uint64
	PrevHash [HashLen]byte
	Reason   string // e.g. "sigterm", "periodic"
	Entries  []Entry
	Hash     [HashLen]byte // SHA-256 of the encoded record, filled on encode/decode
}

// DigestEnv returns the SHA-256 digest of a canonical HP envelope.
func DigestEnv(env []byte) [HashLen]byte { return sha256.Sum256(env) }

// EncodeRecord appends r's wire image to buf, filling r.Hash, and returns
// the extended slice.
func EncodeRecord(buf []byte, r *Record) ([]byte, error) {
	if len(r.Reason) > maxReasonLen {
		return buf, fmt.Errorf("audit: reason of %d bytes exceeds %d", len(r.Reason), maxReasonLen)
	}
	start := len(buf)
	buf = wire.StartEnvelope(buf, recordMagic, recordVersion)
	buf = append(buf, r.PrevHash[:]...)
	buf = binary.BigEndian.AppendUint64(buf, r.Seq)
	buf = append(buf, byte(len(r.Reason)))
	buf = append(buf, r.Reason...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Entries)))
	for i := range r.Entries {
		e := &r.Entries[i]
		if len(e.Name) > maxNameLen {
			return buf, fmt.Errorf("audit: entry name of %d bytes exceeds %d", len(e.Name), maxNameLen)
		}
		if len(e.Env) > MaxEnvLen {
			return buf, fmt.Errorf("audit: envelope of %d bytes exceeds %d", len(e.Env), MaxEnvLen)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.BigEndian.AppendUint64(buf, e.Frames)
		buf = binary.BigEndian.AppendUint64(buf, e.Adds)
		if len(e.ErrText) > 65535 {
			e.ErrText = e.ErrText[:65535]
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.ErrText)))
		buf = append(buf, e.ErrText...)
		buf = append(buf, e.Digest[:]...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Env)))
		buf = append(buf, e.Env...)
	}
	buf = wire.Seal(buf, start)
	r.Hash = sha256.Sum256(buf[start:])
	return buf, nil
}

// DecodeRecord decodes one record from the front of data, returning the
// record and the number of bytes consumed. Allocation is bounded by the
// bytes actually present, never by header claims.
func DecodeRecord(data []byte) (*Record, int, error) {
	c := wire.NewCursor(data, ErrLogTruncated, ErrLogCorrupt)
	if m := c.Bytes(len(recordMagic), len(recordMagic), "magic"); c.Err() == nil && string(m) != recordMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrLogCorrupt, m)
	}
	if v := c.U8(); c.Err() == nil && v != recordVersion {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrLogCorrupt, v)
	}
	r := &Record{}
	copy(r.PrevHash[:], c.Bytes(HashLen, HashLen, "prev hash"))
	r.Seq = c.U64()
	r.Reason = string(c.Bytes(int(c.U8()), maxReasonLen, "reason"))
	count := int(c.U32())
	if c.Err() == nil {
		r.Entries = make([]Entry, 0, min(count, 1024))
	}
	for i := 0; i < count && c.Err() == nil; i++ {
		var e Entry
		e.Name = string(c.Bytes(int(c.U16()), maxNameLen, "entry name"))
		e.Frames = c.U64()
		e.Adds = c.U64()
		e.ErrText = string(c.Bytes(int(c.U16()), math.MaxUint16, "error text"))
		copy(e.Digest[:], c.Bytes(HashLen, HashLen, "digest"))
		e.Env = append([]byte(nil), c.Bytes(int(c.U32()), MaxEnvLen, "envelope")...)
		if c.Err() == nil && e.Digest != DigestEnv(e.Env) {
			return nil, 0, fmt.Errorf("%w: entry %q digest does not match its envelope", ErrLogCorrupt, e.Name)
		}
		r.Entries = append(r.Entries, e)
	}
	c.Trailer(ErrLogCorrupt)
	if err := c.Err(); err != nil {
		return nil, 0, err
	}
	r.Hash = sha256.Sum256(data[:c.Off()])
	return r, c.Off(), nil
}

// ReadLog decodes and chain-verifies a whole log image: every record's CRC,
// prevHash linkage, and sequence continuity. The error from a broken chain
// names the first divergent link by sequence number.
func ReadLog(data []byte) ([]*Record, error) {
	var records []*Record
	var prev *Record
	off := 0
	for off < len(data) {
		r, n, err := DecodeRecord(data[off:])
		if err != nil {
			return records, fmt.Errorf("audit: record %d (offset %d): %w", len(records), off, err)
		}
		if prev == nil {
			if r.PrevHash != ([HashLen]byte{}) {
				return records, fmt.Errorf("%w: record 0 has nonzero prev_hash", ErrChainBroken)
			}
			if r.Seq != 0 {
				return records, fmt.Errorf("%w: record 0 has seq %d", ErrChainBroken, r.Seq)
			}
		} else {
			if r.PrevHash != prev.Hash {
				return records, fmt.Errorf("%w: record %d prev_hash %x does not match record %d hash %x",
					ErrChainBroken, r.Seq, r.PrevHash[:8], prev.Seq, prev.Hash[:8])
			}
			if r.Seq != prev.Seq+1 {
				return records, fmt.Errorf("%w: record seq %d follows %d", ErrChainBroken, r.Seq, prev.Seq)
			}
		}
		records = append(records, r)
		prev = r
		off += n
	}
	return records, nil
}

// Log is a file-backed appender maintaining the hash chain across daemon
// restarts: opening an existing file validates the whole chain and resumes
// from its last hash.
type Log struct {
	f        *os.File
	lastHash [HashLen]byte
	nextSeq  uint64
	buf      []byte
}

// OpenLog opens (or creates) the audit log at path, validating any existing
// records and positioning the appender at the chain's tail.
func OpenLog(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	l := &Log{}
	if len(data) > 0 {
		records, err := ReadLog(data)
		if err != nil {
			return nil, fmt.Errorf("audit: open %s: %w", path, err)
		}
		if n := len(records); n > 0 {
			l.lastHash = records[n-1].Hash
			l.nextSeq = records[n-1].Seq + 1
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	return l, nil
}

// NextSeq returns the sequence number the next appended record will carry.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// Append chains a new record carrying entries onto the log and fsyncs it.
// The returned record includes the assigned Seq, PrevHash, and Hash.
func (l *Log) Append(reason string, entries []Entry) (*Record, error) {
	r := &Record{Seq: l.nextSeq, PrevHash: l.lastHash, Reason: reason, Entries: entries}
	buf, err := EncodeRecord(l.buf[:0], r)
	if err != nil {
		return nil, err
	}
	l.buf = buf[:0]
	if _, err := l.f.Write(buf); err != nil {
		return nil, fmt.Errorf("audit: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return nil, fmt.Errorf("audit: append sync: %w", err)
	}
	l.lastHash = r.Hash
	l.nextSeq++
	return r, nil
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }
