package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// SumCheckpoint is the durable envelope for a rank's in-progress partial
// sum: the number of input values consumed so far plus the exact HP sum of
// that prefix. Because HP addition is exactly associative, a checkpoint
// plus a deterministic replay of the remaining inputs reconstructs the
// rank's full contribution bit-for-bit — which is what lets a fault-
// tolerant reduction (mpi.AllreduceFT) recover a crashed rank's share
// without perturbing the global sum by a single ulp, let alone a bit.
//
// The encoding is self-checking: magic | version | step | HP envelope,
// closed by a CRC-32 over everything before it, so storage-level corruption
// is detected at restore time rather than silently summed.
type SumCheckpoint struct {
	// Step counts the input values already folded into Sum (an input
	// cursor, in whatever deterministic order the writer consumes values).
	Step uint64
	// Sum is the exact partial sum after Step values.
	Sum *HP
}

const (
	sumCheckpointMagic   = "HPCK"
	sumCheckpointVersion = 1
)

// errCheckpoint classifies every checkpoint decode failure.
var errCheckpoint = errors.New("core: bad checkpoint")

// MarshalBinary encodes the checkpoint as
// magic(4) | version(1) | step(8, big-endian) | hp(MarshaledSize) | crc32(4).
func (c *SumCheckpoint) MarshalBinary() ([]byte, error) {
	if c.Sum == nil {
		return nil, fmt.Errorf("core: checkpoint with nil sum")
	}
	hp, err := c.Sum.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := wire.StartEnvelope(make([]byte, 0, 4+1+8+len(hp)+4), sumCheckpointMagic, sumCheckpointVersion)
	buf = binary.BigEndian.AppendUint64(buf, c.Step)
	buf = append(buf, hp...)
	return wire.Seal(buf, 0), nil
}

// UnmarshalBinary decodes and verifies a MarshalBinary encoding, replacing
// c's fields. Any corruption — truncation, bit flips anywhere in the
// envelope — fails with an error naming what went wrong.
func (c *SumCheckpoint) UnmarshalBinary(data []byte) error {
	body, err := wire.OpenEnvelope(data, sumCheckpointMagic, sumCheckpointVersion, errCheckpoint)
	if err != nil {
		return err
	}
	if len(body) < 8 {
		return fmt.Errorf("%w: %d-byte body, need at least 8", errCheckpoint, len(body))
	}
	var hp HP
	if err := hp.UnmarshalBinary(body[8:]); err != nil {
		return fmt.Errorf("core: checkpoint payload: %w", err)
	}
	c.Step = binary.BigEndian.Uint64(body)
	c.Sum = &hp
	return nil
}
