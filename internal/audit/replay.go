package audit

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// Divergence is a failed verification: the first link where the journal and
// the log stop telling the same story. It names the record, the
// accumulator, and the reason, so an auditor can point at the exact break.
type Divergence struct {
	Seq    uint64
	Name   string
	Reason string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("audit: divergent link at record %d, accumulator %q: %s", d.Seq, d.Name, d.Reason)
}

// VerifyResult summarizes a replay verification.
type VerifyResult struct {
	Records         int              // audit records verified
	FramesReplayed  uint64           // journal frames folded
	ValuesReplayed  uint64           // float64 values folded
	UnauditedFrames uint64           // journaled frames past the last watermark (not attested yet)
	TornTail        bool             // journal ends mid-entry (crash while appending)
	Final           map[string]Entry // last verified entry per accumulator
}

// replayAcc is one accumulator's replay state.
type replayAcc struct {
	s      *core.SuperAccumulator
	frames uint64
	adds   uint64
}

// Verify replays the journal against the chain-verified records: for each
// record entry it folds journal entries (in order) until that accumulator's
// frame count reaches the entry's watermark, then requires the replayed
// canonical HP envelope and counters to match the record bit for bit.
//
// It returns a *Divergence naming the first broken link, a journal decode
// error, or nil with a summary. Records must already be chain-verified
// (ReadLog); formats are learned from the records' self-describing
// envelopes, so journal entries for accumulators no record attests to are
// counted as unaudited rather than folded.
func Verify(records []*Record, jr *JournalReader) (*VerifyResult, error) {
	// Learn each audited accumulator's HP format from its first envelope.
	params := make(map[string]core.Params)
	for _, r := range records {
		for i := range r.Entries {
			e := &r.Entries[i]
			if _, ok := params[e.Name]; ok {
				continue
			}
			var h core.HP
			if err := h.UnmarshalBinary(e.Env); err != nil {
				return nil, &Divergence{Seq: r.Seq, Name: e.Name, Reason: fmt.Sprintf("undecodable envelope: %v", err)}
			}
			params[e.Name] = h.Params()
		}
	}

	res := &VerifyResult{Final: make(map[string]Entry)}
	accs := make(map[string]*replayAcc)
	pendingEOF := false

	// step folds exactly one journal entry into the replay state. It
	// returns io.EOF at a clean journal end.
	step := func(seq uint64) error {
		e, err := jr.Next()
		if err != nil {
			return err
		}
		p, audited := params[e.Name]
		st := accs[e.Name]
		switch e.Kind {
		case JournalSeed:
			var h core.HP
			if err := h.UnmarshalBinary(e.Payload); err != nil {
				return &Divergence{Seq: seq, Name: e.Name, Reason: fmt.Sprintf("undecodable seed envelope: %v", err)}
			}
			if st != nil {
				// A restore must extend the journaled trajectory exactly:
				// the seeded state is the snapshot of everything accepted
				// before the restart.
				env, err := st.s.Sum().MarshalBinary()
				if err != nil {
					return err
				}
				if !bytes.Equal(env, e.Payload) || st.frames != e.Frames || st.adds != e.Adds {
					return &Divergence{Seq: seq, Name: e.Name,
						Reason: fmt.Sprintf("restore seed does not extend the journaled state (journal frames=%d adds=%d, seed frames=%d adds=%d): accepted frames were lost before the snapshot",
							st.frames, st.adds, e.Frames, e.Adds)}
				}
			}
			nb := core.NewSuper(h.Params())
			nb.AddHP(&h)
			accs[e.Name] = &replayAcc{s: nb, frames: e.Frames, adds: e.Adds}
			return nil
		case JournalFloats:
			if !audited {
				res.UnauditedFrames++
				return nil
			}
			if st == nil {
				st = &replayAcc{s: core.NewSuper(p)}
				accs[e.Name] = st
			}
			if err := e.checkFloats(); err != nil {
				return &Divergence{Seq: seq, Name: e.Name, Reason: err.Error()}
			}
			n := uint64(len(e.Payload) / 8)
			st.s.AddFloat64sBE(e.Payload)
			st.frames++
			st.adds += n
			res.FramesReplayed++
			res.ValuesReplayed += n
			return nil
		case JournalHP:
			if !audited {
				res.UnauditedFrames++
				return nil
			}
			if st == nil {
				st = &replayAcc{s: core.NewSuper(p)}
				accs[e.Name] = st
			}
			var h core.HP
			if err := h.UnmarshalBinary(e.Payload); err != nil {
				return &Divergence{Seq: seq, Name: e.Name, Reason: fmt.Sprintf("undecodable HP frame: %v", err)}
			}
			st.s.AddHP(&h)
			st.frames++
			res.FramesReplayed++
			return nil
		default:
			return &Divergence{Seq: seq, Name: e.Name, Reason: fmt.Sprintf("unknown journal kind %q", e.Kind)}
		}
	}

	for _, r := range records {
		for i := range r.Entries {
			e := &r.Entries[i]
			st := accs[e.Name]
			if st == nil {
				st = &replayAcc{s: core.NewSuper(params[e.Name])}
				accs[e.Name] = st
			}
			for st.frames < e.Frames {
				if err := step(r.Seq); err != nil {
					if err == io.EOF || errors.Is(err, ErrJournalTruncated) {
						res.TornTail = errors.Is(err, ErrJournalTruncated)
						return res, &Divergence{Seq: r.Seq, Name: e.Name,
							Reason: fmt.Sprintf("journal ends at frame %d, watermark is %d: the log attests to frames the journal never recorded", st.frames, e.Frames)}
					}
					return res, err
				}
				// A seed entry swaps in a fresh replay state for its
				// accumulator; follow the map, not the stale pointer.
				st = accs[e.Name]
			}
			if st.frames > e.Frames {
				return res, &Divergence{Seq: r.Seq, Name: e.Name,
					Reason: fmt.Sprintf("journal has %d frames, watermark is %d: the journal recorded frames the log never attested", st.frames, e.Frames)}
			}
			env, err := st.s.Sum().MarshalBinary()
			if err != nil {
				return res, err
			}
			if !bytes.Equal(env, e.Env) {
				got := DigestEnv(env)
				return res, &Divergence{Seq: r.Seq, Name: e.Name,
					Reason: fmt.Sprintf("replayed sum diverges at watermark %d: log digest %x, replay digest %x", e.Frames, e.Digest[:8], got[:8])}
			}
			if st.adds != e.Adds {
				return res, &Divergence{Seq: r.Seq, Name: e.Name,
					Reason: fmt.Sprintf("replayed %d values at watermark %d, log attests %d", st.adds, e.Frames, e.Adds)}
			}
			res.Final[e.Name] = *e
		}
		res.Records++
	}

	// Drain the journal tail: frames accepted after the last snapshot are
	// legitimate but not yet attested. A torn final entry means the daemon
	// died mid-append — report it, but it breaks no verified link.
	for !pendingEOF {
		err := step(^uint64(0))
		switch {
		case err == nil:
		case err == io.EOF:
			pendingEOF = true
		case errors.Is(err, ErrJournalTruncated):
			res.TornTail = true
			pendingEOF = true
		default:
			return res, err
		}
	}
	// Frames folded past an accumulator's last verified watermark are
	// unaudited too.
	for name, st := range accs {
		if fe, ok := res.Final[name]; ok && st.frames > fe.Frames {
			res.UnauditedFrames += st.frames - fe.Frames
		}
	}
	return res, nil
}
