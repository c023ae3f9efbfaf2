package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/audit"
	"repro/internal/core"
)

// Snapshot file format — the durable image a graceful shutdown writes and
// -restore reloads byte-identically: a one-record audit chain, i.e. the
// genesis HPAR record (seq 0, all-zero prev_hash, reason "snapshot"; layout
// in package audit and DESIGN "Wire formats") carrying every accumulator's
// agreed state — name, frames, adds, sticky error, and the canonical HP
// envelope with its SHA-256 digest. The record's CRC-32 covers every byte,
// so truncation or bit rot anywhere fails loudly at restore instead of
// seeding a silently wrong service state, and cmd/hpaudit replays a snapshot
// against the frame journal exactly as it replays the audit log.

// Snapshot cuts every accumulator (in sorted name order, for deterministic
// bytes) and writes the one-record image with WriteFileDurable. Safe to call
// on a live server; the image reflects all frames acked before the cut of
// each accumulator.
func (s *Server) Snapshot(path string) error {
	entries, err := s.entries()
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	buf, err := audit.EncodeRecord(nil, &audit.Record{Reason: "snapshot", Entries: entries})
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	if err := WriteFileDurable(path, buf); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	mSnapshots.Inc()
	return nil
}

// snapshotCrash is a test-only crash injection point: when non-nil it is
// called at each durability stage of WriteFileDurable, and a non-nil return
// aborts the write there — simulating the process dying at that instant.
// Stages: "written" (temp file written and fsynced, not yet renamed) and
// "renamed" (renamed over path, parent directory not yet synced).
var snapshotCrash func(stage string) error

// WriteFileDurable writes buf to path so that a crash at any instant leaves
// either the complete old file or the complete new one: write to a temp
// file, fsync it (data hits the platter before the rename can be observed),
// rename into place, then fsync the parent directory (the rename itself is
// durable). Skipping either fsync risks a post-crash file whose name exists
// but whose bytes are garbage — exactly the torn state a CRC would catch,
// but catching it means losing the file; ordering the syncs means never
// creating it.
func WriteFileDurable(path string, buf []byte) error {
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

// Restore reloads a state image into the server: the file is read as an
// audit chain (a snapshot, or an audit log itself) and the entries of its
// last record seed one accumulator each, created with the format its
// self-describing envelope names. Because the seed value is the canonical
// agreed sum and HP addition is associative, the restored accumulator is
// byte-identical (MarshalText equal) to the state that was cut, and adds
// accepted after restore continue the same exact trajectory. Returns the
// number of accumulators restored.
func (s *Server) Restore(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	records, err := audit.ReadLog(data)
	if err != nil {
		return 0, fmt.Errorf("server: restore: %w", err)
	}
	if len(records) == 0 {
		return 0, errors.New("server: restore: state image holds no record")
	}
	entries := records[len(records)-1].Entries
	for _, e := range entries {
		st := engineState{sum: new(core.HP), adds: e.Adds, frames: e.Frames}
		if err := st.sum.UnmarshalBinary(e.Env); err != nil {
			return 0, fmt.Errorf("server: restore %q: %w", e.Name, err)
		}
		if e.ErrText != "" {
			st.err = errors.New(e.ErrText)
		}
		a, created, err := s.Create(e.Name, st.sum.Params())
		if err != nil {
			return 0, fmt.Errorf("server: restore %q: %w", e.Name, err)
		}
		if !created {
			return 0, fmt.Errorf("server: restore %q: already exists", e.Name)
		}
		if err := a.seedRestore(st); err != nil {
			return 0, fmt.Errorf("server: restore %q: %w", e.Name, err)
		}
		mRestores.Inc()
	}
	return len(entries), nil
}
