// Package wire is the one framing codec behind every CRC-32-guarded byte
// format in the repository (the table in DESIGN "Wire formats" lists them).
// HP sums are only order-invariant end to end if limb images cross every
// process and disk boundary bit-exact, so each crossing is sealed with a
// big-endian CRC-32 (IEEE) over every preceding byte and decoded by
// bounds-checked code that fails closed. The formats share three layouts —
// frames, type(1) | payloadLen(4) | payload | crc32(4); envelopes,
// magic(4) | version(1) | body | crc32(4); and float64 payloads of 8-byte
// big-endian IEEE-754 bit patterns — plus a Cursor for the fields inside.
//
// Each format keeps its own bytes and its own error sentinels: decode
// failures wrap the sentinels the caller passes in, so errors.Is and the
// owning package's message prefix survive. The package imports only the
// standard library and the feature probe internal/cpu, so internal/core
// can use it.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
)

// Frame layout sizes.
const (
	HeaderLen  = 5 // type + payload length
	TrailerLen = 4 // crc32
	Overhead   = HeaderLen + TrailerLen
)

// Seal appends the CRC-32 of buf[start:] to buf.
func Seal(buf []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// Verify checks that data ends in the CRC-32 of the bytes before it and
// returns those bytes. Failures wrap bad.
func Verify(data []byte, bad error) ([]byte, error) {
	if len(data) < TrailerLen {
		return nil, fmt.Errorf("%w: %d bytes, too short for a crc32 trailer", bad, len(data))
	}
	body := data[:len(data)-TrailerLen]
	if stored, got := binary.BigEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); got != stored {
		return nil, fmt.Errorf("%w: crc32 mismatch (stored %08x, computed %08x)", bad, stored, got)
	}
	return body, nil
}

// StartEnvelope appends an envelope header to buf; the caller appends the
// body and closes the envelope with Seal.
func StartEnvelope(buf []byte, magic string, version byte) []byte {
	return append(append(buf, magic...), version)
}

// OpenEnvelope verifies an envelope and returns its body. The CRC is
// checked first, so a bit flip anywhere reads as a checksum failure.
// Failures wrap bad.
func OpenEnvelope(data []byte, magic string, version byte, bad error) ([]byte, error) {
	if need := len(magic) + 1 + TrailerLen; len(data) < need {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", bad, len(data), need)
	}
	body, err := Verify(data, bad)
	if err != nil {
		return nil, err
	}
	if string(body[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", bad, body[:len(magic)], magic)
	}
	if v := body[len(magic)]; v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", bad, v)
	}
	return body[len(magic)+1:], nil
}

// Frame is one decoded frame. Payload aliases the decoder's buffer (or the
// split input) and is only valid until the next decode.
type Frame struct {
	Type    byte
	Payload []byte
}

// Spec names one frame format: the type bytes it defines, and the owning
// package's sentinels each kind of decode failure wraps.
type Spec struct {
	Types    string // every type byte the format defines
	Trunc    error  // the input ends mid-frame
	Type     error  // a type byte outside Types
	TooLarge error  // a length prefix over the payload bound
	Checksum error  // a CRC-32 mismatch
}

// Begin appends a frame header with the payload length left open; the
// caller appends the payload and closes the frame with End.
func Begin(buf []byte, typ byte) []byte { return append(buf, typ, 0, 0, 0, 0) }

// End patches the length of the frame starting at buf[start] and seals it.
func End(buf []byte, start int) []byte {
	binary.BigEndian.PutUint32(buf[start+1:], uint32(len(buf)-start-HeaderLen))
	return Seal(buf, start)
}

// header checks a frame header — type byte, then the length prefix against
// limit, before anything is allocated on its strength — and returns the
// frame's total length.
func (s *Spec) header(hdr []byte, limit int) (int, error) {
	if strings.IndexByte(s.Types, hdr[0]) < 0 {
		return 0, fmt.Errorf("%w 0x%02x", s.Type, hdr[0])
	}
	n := binary.BigEndian.Uint32(hdr[1:HeaderLen])
	if uint64(n) > uint64(limit) {
		return 0, fmt.Errorf("%w: %d > %d bytes", s.TooLarge, n, limit)
	}
	return HeaderLen + int(n) + TrailerLen, nil
}

// verify checks a whole frame's trailer.
func (s *Spec) verify(frame []byte) (Frame, error) {
	body, err := Verify(frame, s.Checksum)
	if err != nil {
		return Frame{}, err
	}
	return Frame{Type: body[0], Payload: body[HeaderLen:]}, nil
}

// Decoder reads frames from a stream, reusing one buffer.
type Decoder struct {
	r     io.Reader
	spec  *Spec
	limit int
	buf   []byte // the current frame
}

// NewDecoder returns a decoder of spec frames carrying at most maxPayload
// payload bytes.
func NewDecoder(r io.Reader, spec *Spec, maxPayload int) *Decoder {
	return &Decoder{r: r, spec: spec, limit: maxPayload, buf: make([]byte, HeaderLen)}
}

// Next reads and verifies the next frame. It returns io.EOF at a clean end
// of stream and otherwise wraps the spec's sentinels; a read error is
// wrapped too, so callers can classify it with errors.As.
func (d *Decoder) Next() (Frame, error) {
	hdr := d.buf[:HeaderLen]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: reading header: %w", d.spec.Trunc, err)
	}
	total, err := d.spec.header(hdr, d.limit)
	if err != nil {
		return Frame{}, err
	}
	if cap(d.buf) < total {
		d.buf = append(make([]byte, 0, total), hdr...)
	}
	d.buf = d.buf[:total]
	if _, err := io.ReadFull(d.r, d.buf[HeaderLen:]); err != nil {
		return Frame{}, fmt.Errorf("%w: reading %d payload bytes: %w", d.spec.Trunc, total-Overhead, err)
	}
	return d.spec.verify(d.buf)
}

// Split decodes the first spec frame of data and returns it with the number
// of bytes it occupies, so callers can walk concatenated frames. It makes
// Decoder.Next's checks in the same order, so both accept the same frames
// and reject the same bad one with the same sentinel. The payload aliases
// data.
func Split(data []byte, spec *Spec, maxPayload int) (Frame, int, error) {
	if len(data) < HeaderLen {
		return Frame{}, 0, fmt.Errorf("%w: %d header bytes, need %d", spec.Trunc, len(data), HeaderLen)
	}
	total, err := spec.header(data, maxPayload)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(data) < total {
		return Frame{}, 0, fmt.Errorf("%w: frame claims %d bytes, have %d", spec.Trunc, total, len(data))
	}
	f, err := spec.verify(data[:total])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, total, nil
}

// Cursor is a bounds-checked reader over a byte slice. Its first short or
// oversized read latches an error and every later read returns zero
// values, so a decoder walks a layout linearly and checks Err once.
type Cursor struct {
	data, rest      []byte // everything, and what is left to read
	short, oversize error
	err             error
}

// NewCursor returns a cursor over data whose short reads wrap short and
// whose over-limit lengths wrap oversize.
func NewCursor(data []byte, short, oversize error) Cursor {
	return Cursor{data: data, rest: data, short: short, oversize: oversize}
}

// Err returns the first latched error.
func (c *Cursor) Err() error { return c.err }

// Fail latches err for a check the caller makes on a decoded field, unless
// an earlier error is latched.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Off returns the number of bytes consumed.
func (c *Cursor) Off() int { return len(c.data) - len(c.rest) }

// Len returns the number of bytes left.
func (c *Cursor) Len() int { return len(c.rest) }

// next consumes n bytes, or latches a short read of what and returns nil.
func (c *Cursor) next(n int, what string) []byte {
	if c.err == nil && n > len(c.rest) {
		c.err = fmt.Errorf("%w: reading %s: need %d bytes at offset %d, have %d", c.short, what, n, c.Off(), c.Len())
	}
	if c.err != nil {
		return nil
	}
	b := c.rest[:n]
	c.rest = c.rest[n:]
	return b
}

// zeros stands in for a fixed-width field after an error.
var zeros [8]byte

// fixed consumes an n-byte field, reading as zeros after an error.
func (c *Cursor) fixed(n int, what string) []byte {
	if b := c.next(n, what); b != nil {
		return b
	}
	return zeros[:n]
}

// U8, U16, U32 and U64 read big-endian unsigned integers.
func (c *Cursor) U8() byte    { return c.fixed(1, "uint8")[0] }
func (c *Cursor) U16() uint16 { return binary.BigEndian.Uint16(c.fixed(2, "uint16")) }
func (c *Cursor) U32() uint32 { return binary.BigEndian.Uint32(c.fixed(4, "uint32")) }
func (c *Cursor) U64() uint64 { return binary.BigEndian.Uint64(c.fixed(8, "uint64")) }

// Bytes reads n bytes, latching an oversize error if n exceeds limit. The
// result aliases the cursor's data.
func (c *Cursor) Bytes(n, limit int, what string) []byte {
	if c.err == nil && (n < 0 || n > limit) {
		c.err = fmt.Errorf("%w: %s length %d exceeds %d", c.oversize, what, n, limit)
	}
	return c.next(n, what)
}

// Trailer reads a CRC-32 trailer and checks it against every byte consumed
// before it, latching a mismatch wrapping bad: it closes a record whose
// length is only known once its fields are walked.
func (c *Cursor) Trailer(bad error) {
	if c.next(TrailerLen, "crc32") != nil {
		if _, err := Verify(c.data[:c.Off()], bad); err != nil {
			c.err = err
		}
	}
}

// AppendFloat64s appends xs to buf as a float64 payload, growing buf once.
func AppendFloat64s(buf []byte, xs []float64) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 8*len(xs))[:n+8*len(xs)]
	putFloat64s(buf[n:], xs)
	return buf
}

// putFloat64sGeneric writes xs into dst (8*len(xs) bytes) as big-endian
// bit patterns: the portable encoder, and the tail of the vector one.
func putFloat64sGeneric(dst []byte, xs []float64) {
	dst = dst[:8*len(xs)]
	for i, x := range xs {
		binary.BigEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// expMask selects a float64's exponent bits; all ones means NaN or ±Inf.
const expMask = 0x7ff0_0000_0000_0000

// CheckFloat64s validates a float64 payload without decoding it: a length
// that is not a multiple of 8 is an error, and so is a NaN or ±Inf, whose
// error names the first such value's index and wraps notFinite. The scan
// is branch-free: (bits&expMask) + 1<<52 carries into bit 63 exactly when
// the exponent field is all ones, so OR-ing that over every value leaves
// bit 63 set iff some value is not finite.
func CheckFloat64s(p []byte, notFinite error) error {
	if len(p)%8 != 0 {
		return fmt.Errorf("float64 payload of %d bytes is not a multiple of 8", len(p))
	}
	var bad uint64
	q := p
	for ; len(q) >= 32; q = q[32:] {
		bad |= (binary.BigEndian.Uint64(q)&expMask + 1<<52) |
			(binary.BigEndian.Uint64(q[8:])&expMask + 1<<52) |
			(binary.BigEndian.Uint64(q[16:])&expMask + 1<<52) |
			(binary.BigEndian.Uint64(q[24:])&expMask + 1<<52)
	}
	for ; len(q) >= 8; q = q[8:] {
		bad |= binary.BigEndian.Uint64(q)&expMask + 1<<52
	}
	if bad>>63 == 0 {
		return nil
	}
	n := len(p) / 8
	for i := 0; i < n; i++ {
		if binary.BigEndian.Uint64(p[8*i:])&expMask == expMask {
			return fmt.Errorf("value %d of %d: %w", i, n, notFinite)
		}
	}
	panic("wire: CheckFloat64s scan found no non-finite value")
}

// Float64s decodes a float64 payload into dst (reused if its capacity
// allows), after CheckFloat64s accepts it.
func Float64s(dst []float64, p []byte, notFinite error) ([]float64, error) {
	if err := CheckFloat64s(p, notFinite); err != nil {
		return nil, err
	}
	dst = slices.Grow(dst[:0], len(p)/8)[:len(p)/8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
	}
	return dst, nil
}
