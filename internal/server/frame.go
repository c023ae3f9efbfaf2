// Package server implements hpsumd, the order-invariant summation service:
// a registry of named, sharded HP accumulators folded in the request handler,
// served over a stdlib-only HTTP wire surface with streaming binary ingest,
// admission control, and snapshot/restore through the audit record format.
//
// The service leans entirely on the paper's central property (eq. 2):
// multi-limb two's-complement addition is exactly associative and
// commutative, so any interleaving of concurrent client batches — across
// connections and shards — produces a bit-identical
// sum. Batching, sharding, and reordering are therefore correctness-free
// design dimensions; only overflow verdicts need deterministic combine
// points (MergeChecked at snapshot/read time), mirroring omp.Reduce.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Wire format of the streaming ingest payload: a sequence of wire frames
// (type | payloadLen | payload | crc32; see DESIGN "Wire formats") of
// three types:
//
//	'f' — a batch of float64 values, 8 bytes each, big-endian IEEE-754 bit
//	      patterns (the same byte order as HP limb images);
//	'h' — one core.HP partial sum in its self-describing MarshalBinary
//	      envelope, for exact hand-off of pre-reduced partials (e.g. from
//	      MPI ranks or another hpsumd);
//	'T' — an optional trace-context frame: 16 bytes of (trace id, span id),
//	      big-endian. It is metadata, not data: the server parents its
//	      ingest span under it so a frame can be followed client → ingest
//	      → fold, but it never counts toward frames_accepted (resume
//	      arithmetic is untouched) and never touches accumulator state.
//	      Clients only send it when tracing is enabled and sampled.
//
// A frame is the unit of admission: it is either accepted whole (folded
// into one shard of every replica) or rejected whole, so clients can resume after backpressure
// by resending only unaccepted frames.
const (
	FrameFloat64 byte = 'f'
	FrameHP      byte = 'h'
	FrameTrace   byte = 'T'

	// traceFramePayloadLen is the fixed payload size of a FrameTrace:
	// traceID(8) | spanID(8).
	traceFramePayloadLen = 16
)

// MaxFramePayload is the default cap on a single frame's payload size
// (1 MiB: 128k float64 values). The decoder rejects larger length prefixes
// before allocating, so a corrupt or hostile length field cannot balloon
// memory.
const MaxFramePayload = 1 << 20

// Frame decoding errors. ErrFrameTooLarge and ErrFrameChecksum are returned
// wrapped with frame context; use errors.Is to classify.
var (
	ErrFrameTooLarge = errors.New("server: frame payload exceeds limit")
	ErrFrameChecksum = errors.New("server: frame checksum mismatch")
	ErrFrameType     = errors.New("server: unknown frame type")
	ErrFrameTrunc    = errors.New("server: truncated frame")
)

// IngestFrames is the ingest stream's frame format, for decoding with
// package wire.
var IngestFrames = wire.Spec{
	Types:    string([]byte{FrameFloat64, FrameHP, FrameTrace}),
	Trunc:    ErrFrameTrunc,
	Type:     ErrFrameType,
	TooLarge: ErrFrameTooLarge,
	Checksum: ErrFrameChecksum,
}

// AppendFloatFrame appends a FrameFloat64 frame holding xs to buf and
// returns the extended slice.
func AppendFloatFrame(buf []byte, xs []float64) []byte {
	start := len(buf)
	return wire.End(wire.AppendFloat64s(wire.Begin(buf, FrameFloat64), xs), start)
}

// AppendHPFrame appends a FrameHP frame holding x's self-describing binary
// envelope to buf and returns the extended slice.
func AppendHPFrame(buf []byte, x *core.HP) ([]byte, error) {
	env, err := x.MarshalBinary()
	if err != nil {
		return buf, err
	}
	start := len(buf)
	return wire.End(append(wire.Begin(buf, FrameHP), env...), start), nil
}

// AppendTraceFrame appends a FrameTrace frame carrying ctx to buf and
// returns the extended slice. An invalid context appends nothing, so
// callers can chain it unconditionally.
func AppendTraceFrame(buf []byte, ctx trace.Context) []byte {
	if !ctx.Valid() {
		return buf
	}
	start := len(buf)
	buf = wire.Begin(buf, FrameTrace)
	buf = binary.BigEndian.AppendUint64(buf, ctx.TraceID)
	buf = binary.BigEndian.AppendUint64(buf, ctx.SpanID)
	return wire.End(buf, start)
}

// checkFloatFrame validates a FrameFloat64 payload without decoding it:
// the frame is folded and journaled from these bytes. Non-finite values
// are rejected here, at admission, so a poisoned frame cannot wedge a
// named accumulator into a permanent sticky-error state; range errors
// (overflow/underflow of the HP format) remain per-accumulator sticky
// errors, as in the rest of the repo.
func checkFloatFrame(payload []byte) error {
	if err := wire.CheckFloat64s(payload, core.ErrNotFinite); err != nil {
		return fmt.Errorf("server: float frame: %w", err)
	}
	return nil
}

// frameTrace decodes a FrameTrace payload.
func frameTrace(payload []byte) (trace.Context, error) {
	if len(payload) != traceFramePayloadLen {
		return trace.Context{}, fmt.Errorf("server: trace frame payload of %d bytes, want %d", len(payload), traceFramePayloadLen)
	}
	return trace.Context{
		TraceID: binary.BigEndian.Uint64(payload),
		SpanID:  binary.BigEndian.Uint64(payload[8:]),
	}, nil
}

// frameHP decodes a FrameHP payload into a fresh HP value.
func frameHP(payload []byte) (*core.HP, error) {
	var h core.HP
	if err := h.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	return &h, nil
}
