package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/wire"
)

// Snapshot file format — the durable image a graceful shutdown writes and
// -restore reloads byte-identically: a wire envelope "HPSS" (layout in
// DESIGN "Wire formats") whose body is count(4) and then, per entry,
//
//	nameLen(2) | name | frames(8) | errLen(2) | err | ckptLen(4) | ckpt
//
// where ckpt is a core.SumCheckpoint envelope (itself CRC-guarded, carrying
// the adds cursor and the exact merged HP sum — self-describing, so mixed
// per-accumulator formats restore correctly). The outer CRC-32 covers
// everything before it, so truncation or bit rot anywhere fails loudly at
// restore instead of seeding a silently wrong service state.

const (
	snapshotMagic   = "HPSS"
	snapshotVersion = 1
)

// errSnapshot classifies every snapshot decode failure.
var errSnapshot = errors.New("server: bad snapshot")

// snapshotEntry is one accumulator's durable state.
type snapshotEntry struct {
	name    string
	frames  uint64
	errText string
	ckpt    []byte // SumCheckpoint.MarshalBinary envelope
}

// Snapshot flushes every accumulator (in sorted name order, for
// deterministic bytes) and writes the snapshot file atomically
// (temp file + rename). Safe to call on a live server; the image reflects
// all frames acked before the flush of each accumulator.
func (s *Server) Snapshot(path string) error {
	names := s.Names()
	entries := make([]snapshotEntry, 0, len(names))
	for _, name := range names {
		a := s.Lookup(name)
		if a == nil {
			continue // deleted between Names and Lookup
		}
		ck, frames, errText, err := a.checkpoint()
		if err != nil {
			return fmt.Errorf("server: snapshot %q: %w", name, err)
		}
		env, err := ck.MarshalBinary()
		if err != nil {
			return fmt.Errorf("server: snapshot %q: %w", name, err)
		}
		entries = append(entries, snapshotEntry{name: name, frames: frames, errText: errText, ckpt: env})
	}
	buf := wire.StartEnvelope(make([]byte, 0, 256), snapshotMagic, snapshotVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.name)))
		buf = append(buf, e.name...)
		buf = binary.BigEndian.AppendUint64(buf, e.frames)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.errText)))
		buf = append(buf, e.errText...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.ckpt)))
		buf = append(buf, e.ckpt...)
	}
	buf = wire.Seal(buf, 0)
	if err := writeFileDurable(path, buf); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	mSnapshots.Inc()
	return nil
}

// snapshotCrash is a test-only crash injection point: when non-nil it is
// called at each durability stage of the snapshot write, and a non-nil
// return aborts the write there — simulating the process dying at that
// instant. Stages: "written" (temp file written and fsynced, not yet
// renamed) and "renamed" (renamed over path, parent directory not yet
// synced).
var snapshotCrash func(stage string) error

// writeFileDurable writes buf to path so that a crash at any instant leaves
// either the complete old file or the complete new one: write to a temp
// file, fsync it (data hits the platter before the rename can be observed),
// rename into place, then fsync the parent directory (the rename itself is
// durable). Skipping either fsync risks a post-crash file whose name exists
// but whose bytes are garbage — exactly the torn state the CRC would catch,
// but catching it means losing the snapshot; ordering the syncs means never
// creating it.
func writeFileDurable(path string, buf []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if snapshotCrash != nil {
		if err := snapshotCrash("written"); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if snapshotCrash != nil {
		if err := snapshotCrash("renamed"); err != nil {
			return err
		}
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		serr := dir.Sync()
		dir.Close()
		if serr != nil {
			return serr
		}
	}
	return nil
}

// parseSnapshot decodes and verifies a snapshot image.
func parseSnapshot(data []byte) ([]snapshotEntry, error) {
	body, err := wire.OpenEnvelope(data, snapshotMagic, snapshotVersion, errSnapshot)
	if err != nil {
		return nil, err
	}
	c := wire.NewCursor(body, errSnapshot, errSnapshot)
	count := int(c.U32())
	entries := make([]snapshotEntry, 0, min(count, 1024))
	for i := 0; i < count && c.Err() == nil; i++ {
		e := snapshotEntry{name: string(c.Bytes(int(c.U16()), math.MaxUint16, "name"))}
		e.frames = c.U64()
		e.errText = string(c.Bytes(int(c.U16()), math.MaxUint16, "error text"))
		e.ckpt = c.Bytes(int(c.U32()), math.MaxInt32, "checkpoint")
		if c.Err() == nil && !validName(e.name) {
			return nil, fmt.Errorf("server: snapshot entry %d: %w: %q", i, ErrBadName, e.name)
		}
		entries = append(entries, e)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errSnapshot, c.Len())
	}
	return entries, nil
}

// Restore reloads a snapshot file into the server, creating each named
// accumulator with its checkpointed format and seeding it with the exact
// HP sum it held at shutdown. Because the seed value is the canonical
// merged sum and HP addition is associative, the restored accumulator is
// byte-identical (MarshalText equal) to the pre-shutdown state, and adds
// accepted after restore continue the same exact trajectory. Returns the
// number of accumulators restored.
func (s *Server) Restore(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	entries, err := parseSnapshot(data)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		var ck core.SumCheckpoint
		if err := ck.UnmarshalBinary(e.ckpt); err != nil {
			return 0, fmt.Errorf("server: restore %q: %w", e.name, err)
		}
		a, created, err := s.Create(e.name, ck.Sum.Params())
		if err != nil {
			return 0, fmt.Errorf("server: restore %q: %w", e.name, err)
		}
		if !created {
			return 0, fmt.Errorf("server: restore %q: already exists", e.name)
		}
		if err := a.seedRestore(&ck, e.frames, e.errText); err != nil {
			return 0, fmt.Errorf("server: restore %q: %w", e.name, err)
		}
		mRestores.Inc()
	}
	return len(entries), nil
}
