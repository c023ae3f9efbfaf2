// Package gossip clusters hpsumd daemons into a convergent summation
// fabric: a Brahms-style membership/peer-sampling layer (push/pull rounds,
// bounded views, a min-wise history sampler for eclipse resistance, failure
// suspicion) carrying an anti-entropy protocol over per-node HP envelope
// contributions.
//
// The replication model leans on the paper's central property: HP
// fixed-point addition is exactly associative and commutative, so a partial
// sum is a state-based CRDT — almost. Addition is NOT idempotent, so nodes
// never gossip "my current total" (re-merging it would double-count).
// Instead the replicated object is a grow-only map of contributions keyed
// by (accumulator, origin node, epoch): only the owner writes a key, each
// write carries a monotone version (the owner's frame count), and the join
// keeps the higher version per key. That map IS a join-semilattice, so any
// gossip schedule, any duplication, and any message loss converge every
// node to the same map — and because the merge of the map's envelopes runs
// in fixed sorted-key order through the engine's checked combine, every
// node's cluster read is bit-identical.
package gossip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Wire format: one gossip frame is a wire frame (kind | payloadLen |
// payload | crc32; see DESIGN "Wire formats"). Five frame kinds exist, all
// asynchronous one-way messages so neither transport (HTTP POST or mpi
// reliable frames) needs blocking request/response matching:
//
//	'P' — push: the sender advertises itself, a bounded view sample, and
//	      its contribution digests (Brahms push + anti-entropy probe);
//	'Q' — pull request: the sender asks for the receiver's view and for
//	      any contributions newer than the digests it encloses;
//	'R' — pull reply: view sample + digests + the entries the requester
//	      was missing;
//	'D' — delta: entries only — the anti-entropy repair a digest mismatch
//	      triggers;
//	'L' — leave: the sender is departing; drop it from views and samplers.
//
// The payload is a self-contained Message: sender identity and epoch, a
// trace context (zero = untraced) so gossip rounds stitch into end-to-end
// traces, and bounded view/digest/entry sections.
const (
	MsgPush    byte = 'P'
	MsgPullReq byte = 'Q'
	MsgPullRep byte = 'R'
	MsgDelta   byte = 'D'
	MsgLeave   byte = 'L'

	wireVersion = 1
)

// MaxFramePayload caps one gossip frame's payload, mirroring the server
// ingest bound: the decoder rejects larger length prefixes before
// allocating or trusting anything past the header.
const MaxFramePayload = 1 << 20

// Section bounds: a frame that claims more is rejected before its contents
// are walked, so a corrupt count cannot force a huge allocation.
const (
	MaxViewEntries = 64
	MaxDigests     = 1024
	MaxEntries     = 256

	maxIDLen   = 128
	maxAddrLen = 256
	maxAccLen  = 128
	maxEnvLen  = 1 << 16
)

// Frame decoding errors; use errors.Is to classify.
var (
	ErrFrameTooLarge = errors.New("gossip: frame payload exceeds limit")
	ErrFrameChecksum = errors.New("gossip: frame checksum mismatch")
	ErrFrameKind     = errors.New("gossip: unknown frame kind")
	ErrFrameTrunc    = errors.New("gossip: truncated frame")
	ErrFrameVersion  = errors.New("gossip: unknown wire version")
	ErrFrameBounds   = errors.New("gossip: frame section exceeds bounds")
)

// gossipFrames is the gossip frame format.
var gossipFrames = wire.Spec{
	Types:    string([]byte{MsgPush, MsgPullReq, MsgPullRep, MsgDelta, MsgLeave}),
	Trunc:    ErrFrameTrunc,
	Type:     ErrFrameKind,
	TooLarge: ErrFrameTooLarge,
	Checksum: ErrFrameChecksum,
}

// Peer identifies one cluster member: a stable node id plus the address its
// transport delivers to (a base URL for HTTP, a decimal rank for mpi).
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Digest summarizes one contribution for anti-entropy: its key, the owner's
// monotone version, and the first 8 bytes of the SHA-256 of the envelope
// frame — enough to detect both staleness (version) and equivocation (same
// version, different bytes) without shipping the envelope.
type Digest struct {
	Acc     string
	Node    string
	Epoch   uint64
	Version uint64
	Sum     [8]byte
}

// Entry is one shipped contribution: the owner's exact HP partial for one
// accumulator, wrapped in the server's FrameHP hand-off envelope ('h' frame
// bytes), plus the counters a cluster read reports.
type Entry struct {
	Acc     string
	Node    string
	Epoch   uint64
	Version uint64
	Adds    uint64
	Frames  uint64
	Env     []byte
}

// key is an Entry's identity in the contribution map.
func (e *Entry) key() entryKey { return entryKey{acc: e.Acc, node: e.Node, epoch: e.Epoch} }

// Message is one decoded gossip frame.
type Message struct {
	Kind    byte
	From    Peer
	Epoch   uint64
	Trace   trace.Context
	View    []Peer
	Digests []Digest
	Entries []Entry
}

// AppendMessage encodes m as one gossip frame appended to buf. Sections
// beyond the wire bounds are an error — callers bound them when building
// messages, so an oversize here is a bug, not an input condition.
func AppendMessage(buf []byte, m *Message) ([]byte, error) {
	if strings.IndexByte(gossipFrames.Types, m.Kind) < 0 {
		return buf, fmt.Errorf("%w 0x%02x", ErrFrameKind, m.Kind)
	}
	if len(m.View) > MaxViewEntries || len(m.Digests) > MaxDigests || len(m.Entries) > MaxEntries {
		return buf, fmt.Errorf("%w: %d view, %d digests, %d entries",
			ErrFrameBounds, len(m.View), len(m.Digests), len(m.Entries))
	}
	start := len(buf)
	buf = wire.Begin(buf, m.Kind)
	buf = append(buf, wireVersion)
	var err error
	if buf, err = appendPeer(buf, m.From); err != nil {
		return buf[:start], err
	}
	buf = binary.BigEndian.AppendUint64(buf, m.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, m.Trace.TraceID)
	buf = binary.BigEndian.AppendUint64(buf, m.Trace.SpanID)

	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.View)))
	for _, p := range m.View {
		if buf, err = appendPeer(buf, p); err != nil {
			return buf[:start], err
		}
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Digests)))
	for i := range m.Digests {
		if buf, err = appendDigest(buf, &m.Digests[i]); err != nil {
			return buf[:start], err
		}
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Entries)))
	for i := range m.Entries {
		if buf, err = appendEntry(buf, &m.Entries[i]); err != nil {
			return buf[:start], err
		}
	}

	if plen := len(buf) - start - wire.HeaderLen; plen > MaxFramePayload {
		return buf[:start], fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, plen, MaxFramePayload)
	}
	return wire.End(buf, start), nil
}

func appendPeer(buf []byte, p Peer) ([]byte, error) {
	if len(p.ID) == 0 || len(p.ID) > maxIDLen {
		return buf, fmt.Errorf("gossip: peer id length %d (want 1..%d)", len(p.ID), maxIDLen)
	}
	if len(p.Addr) > maxAddrLen {
		return buf, fmt.Errorf("gossip: peer addr length %d > %d", len(p.Addr), maxAddrLen)
	}
	buf = append(buf, byte(len(p.ID)))
	buf = append(buf, p.ID...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Addr)))
	buf = append(buf, p.Addr...)
	return buf, nil
}

func appendDigest(buf []byte, d *Digest) ([]byte, error) {
	if err := checkNames(d.Acc, d.Node); err != nil {
		return buf, err
	}
	buf = append(buf, byte(len(d.Acc)))
	buf = append(buf, d.Acc...)
	buf = append(buf, byte(len(d.Node)))
	buf = append(buf, d.Node...)
	buf = binary.BigEndian.AppendUint64(buf, d.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, d.Version)
	buf = append(buf, d.Sum[:]...)
	return buf, nil
}

func appendEntry(buf []byte, e *Entry) ([]byte, error) {
	if err := checkNames(e.Acc, e.Node); err != nil {
		return buf, err
	}
	if len(e.Env) == 0 || len(e.Env) > maxEnvLen {
		return buf, fmt.Errorf("gossip: entry envelope length %d (want 1..%d)", len(e.Env), maxEnvLen)
	}
	buf = append(buf, byte(len(e.Acc)))
	buf = append(buf, e.Acc...)
	buf = append(buf, byte(len(e.Node)))
	buf = append(buf, e.Node...)
	buf = binary.BigEndian.AppendUint64(buf, e.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, e.Version)
	buf = binary.BigEndian.AppendUint64(buf, e.Adds)
	buf = binary.BigEndian.AppendUint64(buf, e.Frames)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Env)))
	buf = append(buf, e.Env...)
	return buf, nil
}

func checkNames(acc, node string) error {
	if len(acc) == 0 || len(acc) > maxAccLen {
		return fmt.Errorf("gossip: accumulator name length %d (want 1..%d)", len(acc), maxAccLen)
	}
	if len(node) == 0 || len(node) > maxIDLen {
		return fmt.Errorf("gossip: node id length %d (want 1..%d)", len(node), maxIDLen)
	}
	return nil
}

// DecodeMessage decodes the first gossip frame in data, returning the
// message and the number of bytes consumed so callers can walk a stream of
// concatenated frames. Every length and count is checked against the wire
// bounds before it is trusted; the checksum is verified before any section
// is walked. Decoded byte slices (entry envelopes) are copies — they do not
// alias data.
func DecodeMessage(data []byte) (*Message, int, error) {
	f, total, err := wire.Split(data, &gossipFrames, MaxFramePayload)
	if err != nil {
		return nil, 0, err
	}
	c := wire.NewCursor(f.Payload, ErrFrameTrunc, ErrFrameBounds)
	if v := c.U8(); v != wireVersion {
		return nil, 0, fmt.Errorf("%w %d", ErrFrameVersion, v)
	}
	m := &Message{Kind: f.Type}
	m.From = readPeer(&c)
	m.Epoch = c.U64()
	m.Trace = trace.Context{TraceID: c.U64(), SpanID: c.U64()}

	for i, n := 0, readCount(&c, MaxViewEntries, "view entries"); i < n && c.Err() == nil; i++ {
		m.View = append(m.View, readPeer(&c))
	}
	for i, n := 0, readCount(&c, MaxDigests, "digests"); i < n && c.Err() == nil; i++ {
		m.Digests = append(m.Digests, readDigest(&c))
	}
	for i, n := 0, readCount(&c, MaxEntries, "entries"); i < n && c.Err() == nil; i++ {
		m.Entries = append(m.Entries, readEntry(&c))
	}
	if err := c.Err(); err != nil {
		return nil, 0, err
	}
	if c.Len() != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrFrameTrunc, c.Len())
	}
	return m, total, nil
}

// readCount reads a section's uint16 item count and checks it against
// limit before any item is walked.
func readCount(c *wire.Cursor, limit int, what string) int {
	n := int(c.U16())
	if c.Err() == nil && n > limit {
		c.Fail(fmt.Errorf("%w: %d %s > %d", ErrFrameBounds, n, what, limit))
	}
	return n
}

func readPeer(c *wire.Cursor) Peer {
	var p Peer
	p.ID = string(c.Bytes(int(c.U8()), maxIDLen, "peer id"))
	p.Addr = string(c.Bytes(int(c.U16()), maxAddrLen, "peer addr"))
	if c.Err() == nil && p.ID == "" {
		c.Fail(fmt.Errorf("gossip: empty peer id"))
	}
	return p
}

func readDigest(c *wire.Cursor) Digest {
	var g Digest
	g.Acc = string(c.Bytes(int(c.U8()), maxAccLen, "digest acc"))
	g.Node = string(c.Bytes(int(c.U8()), maxIDLen, "digest node"))
	g.Epoch = c.U64()
	g.Version = c.U64()
	copy(g.Sum[:], c.Bytes(len(g.Sum), len(g.Sum), "digest sum"))
	if c.Err() == nil && (g.Acc == "" || g.Node == "") {
		c.Fail(fmt.Errorf("gossip: empty digest key"))
	}
	return g
}

func readEntry(c *wire.Cursor) Entry {
	var e Entry
	e.Acc = string(c.Bytes(int(c.U8()), maxAccLen, "entry acc"))
	e.Node = string(c.Bytes(int(c.U8()), maxIDLen, "entry node"))
	e.Epoch = c.U64()
	e.Version = c.U64()
	e.Adds = c.U64()
	e.Frames = c.U64()
	env := c.Bytes(int(c.U32()), maxEnvLen, "entry envelope")
	switch {
	case c.Err() != nil:
	case len(env) == 0:
		c.Fail(fmt.Errorf("%w: empty entry envelope", ErrFrameBounds))
	case e.Acc == "" || e.Node == "":
		c.Fail(fmt.Errorf("gossip: empty entry key"))
	default:
		e.Env = append([]byte(nil), env...)
	}
	return e
}
