package server

import (
	"errors"
	"fmt"

	"repro/internal/audit"
)

// Audit wiring. With auditing enabled the server keeps two append-only
// files: a frame journal recording every accepted ingest frame (and every
// restore hand-off) in admission order, and a hash-linked audit log of
// snapshot records. Each record attests, per accumulator, to a frame-count
// watermark and the exact canonical sum at that watermark, taken at a
// quiescent point — so the first W journaled frames of an accumulator are
// exactly the W frames its record covers, and cmd/hpaudit can replay the
// journal against the log to prove a reported total is the exact sum of the
// accepted frames, or name the first divergent link.

// auditState carries the audit files; accumulators hold a pointer so the
// ingest path can journal without reaching back into the Server.
type auditState struct {
	journal *audit.Journal
	log     *audit.Log
}

// EnableAudit opens (or resumes) the frame journal and the hash-linked
// audit log. It must be called before any accumulator exists — frames
// accepted by an unaudited accumulator would be invisible to replay — and
// before Restore, so restore hand-offs are journaled.
func (s *Server) EnableAudit(journalPath, logPath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if s.aud != nil {
		return errors.New("server: audit already enabled")
	}
	if len(s.accs) > 0 {
		return errors.New("server: EnableAudit must run before accumulators are created")
	}
	j, err := audit.OpenJournal(journalPath)
	if err != nil {
		return fmt.Errorf("server: audit journal: %w", err)
	}
	l, err := audit.OpenLog(logPath)
	if err != nil {
		j.Close()
		return fmt.Errorf("server: audit log: %w", err)
	}
	s.aud = &auditState{journal: j, log: l}
	return nil
}

// CloseAudit syncs and closes the audit files. Call after the final audit
// record (hpsumd: after the SIGTERM snapshot), once no ingest can run.
func (s *Server) CloseAudit() error {
	s.mu.Lock()
	aud := s.aud
	s.aud = nil
	s.mu.Unlock()
	if aud == nil {
		return nil
	}
	jerr := aud.journal.Close()
	lerr := aud.log.Close()
	if jerr != nil {
		return jerr
	}
	return lerr
}

// AuditRecord cuts every accumulator at a quiescent point and appends one
// hash-linked record attesting to the agreed state of each. The journal is
// fsynced before the record is chained, so a record never attests to frames
// the journal could still lose. Divergent minority replicas are quarantined
// by the cut itself (agree), so a lying replica's value is never attested.
func (s *Server) AuditRecord(reason string) (*audit.Record, error) {
	s.mu.RLock()
	aud := s.aud
	s.mu.RUnlock()
	if aud == nil {
		return nil, errors.New("server: audit not enabled")
	}
	entries, err := s.entries()
	if err != nil {
		return nil, fmt.Errorf("server: audit record: %w", err)
	}
	if err := aud.journal.Sync(); err != nil {
		return nil, fmt.Errorf("server: audit journal sync: %w", err)
	}
	rec, err := aud.log.Append(reason, entries)
	if err != nil {
		return nil, fmt.Errorf("server: audit record: %w", err)
	}
	mAuditRecords.Inc()
	return rec, nil
}

// entries cuts every accumulator, in sorted name order, into its agreed
// state as an audit entry — the one state image that both audit records
// and snapshots persist. Each cut holds the accumulator's replication lock
// exclusively, which waits out every in-flight ingest (each of which
// journals before releasing the shared lock), so an entry's frame count
// equals the accumulator's journaled frame count exactly.
func (s *Server) entries() ([]audit.Entry, error) {
	names := s.Names()
	entries := make([]audit.Entry, 0, len(names))
	for _, name := range names {
		a := s.Lookup(name)
		if a == nil {
			continue // deleted between Names and Lookup
		}
		st, _, _, err := a.agree()
		if err != nil {
			return nil, fmt.Errorf("cut %q: %w", name, err)
		}
		env, err := st.sum.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("cut %q: %w", name, err)
		}
		e := audit.Entry{Name: name, Frames: st.frames, Adds: st.adds, Digest: audit.DigestEnv(env), Env: env}
		if st.err != nil {
			e.ErrText = st.err.Error()
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// journalOp records one accepted ingest frame. Called under the
// accumulator's shared lock, after the frame has landed on every active
// replica.
func (aud *auditState) journalOp(name string, o op) error {
	var err error
	switch {
	case o.hp != nil:
		var env []byte
		if env, err = o.hp.MarshalBinary(); err != nil {
			return err
		}
		err = aud.journal.Append(&audit.JournalEntry{Kind: audit.JournalHP, Name: name, Payload: env})
	default:
		err = aud.journal.Append(&audit.JournalEntry{Kind: audit.JournalFloats, Name: name, Payload: o.payload})
	}
	if err != nil {
		return err
	}
	mJournalFrames.Inc()
	return nil
}

// journalSeed records a restore hand-off: the exact state and counters the
// accumulator was seeded with, so replay can verify the restored state
// extends the journaled trajectory bit for bit.
func (aud *auditState) journalSeed(name string, st engineState) error {
	env, err := st.sum.MarshalBinary()
	if err != nil {
		return err
	}
	return aud.journal.Append(&audit.JournalEntry{
		Kind: audit.JournalSeed, Name: name,
		Frames: st.frames, Adds: st.adds, Payload: env,
	})
}
