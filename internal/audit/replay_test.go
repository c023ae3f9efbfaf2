package audit

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// journalBuilder accumulates a journal image alongside the true replayed
// state, so tests can mint audit records at any watermark.
type journalBuilder struct {
	t    *testing.T
	buf  []byte
	accs map[string]*replayAcc
	p    core.Params
}

func newJournalBuilder(t *testing.T, p core.Params) *journalBuilder {
	return &journalBuilder{t: t, accs: make(map[string]*replayAcc), p: p}
}

func (jb *journalBuilder) acc(name string) *replayAcc {
	st := jb.accs[name]
	if st == nil {
		st = &replayAcc{s: core.NewSuper(jb.p)}
		jb.accs[name] = st
	}
	return st
}

func (jb *journalBuilder) floats(name string, xs []float64) {
	jb.t.Helper()
	var payload []byte
	for _, x := range xs {
		payload = appendFloatBits(payload, x)
	}
	var err error
	jb.buf, err = AppendJournalEntry(jb.buf, &JournalEntry{Kind: JournalFloats, Name: name, Payload: payload})
	if err != nil {
		jb.t.Fatal(err)
	}
	st := jb.acc(name)
	st.s.AddSlice(xs)
	st.frames++
	st.adds += uint64(len(xs))
}

func (jb *journalBuilder) hp(name string, h *core.HP) {
	jb.t.Helper()
	env, err := h.MarshalBinary()
	if err != nil {
		jb.t.Fatal(err)
	}
	jb.buf, err = AppendJournalEntry(jb.buf, &JournalEntry{Kind: JournalHP, Name: name, Payload: env})
	if err != nil {
		jb.t.Fatal(err)
	}
	st := jb.acc(name)
	st.s.AddHP(h)
	st.frames++
}

// seed journals a restore hand-off carrying the accumulator's current state.
func (jb *journalBuilder) seed(name string) {
	jb.t.Helper()
	st := jb.acc(name)
	env, err := st.s.Sum().MarshalBinary()
	if err != nil {
		jb.t.Fatal(err)
	}
	jb.buf, err = AppendJournalEntry(jb.buf, &JournalEntry{
		Kind: JournalSeed, Name: name, Frames: st.frames, Adds: st.adds, Payload: env,
	})
	if err != nil {
		jb.t.Fatal(err)
	}
}

// entry mints the audit-record entry attesting to name's current state.
func (jb *journalBuilder) entry(name string) Entry {
	jb.t.Helper()
	st := jb.acc(name)
	env, err := st.s.Sum().MarshalBinary()
	if err != nil {
		jb.t.Fatal(err)
	}
	return Entry{Name: name, Frames: st.frames, Adds: st.adds, Digest: DigestEnv(env), Env: env}
}

func chain(t *testing.T, entrySets ...[]Entry) []*Record {
	t.Helper()
	var records []*Record
	var buf []byte
	var prev [HashLen]byte
	for i, es := range entrySets {
		r := &Record{Seq: uint64(i), PrevHash: prev, Reason: "periodic", Entries: es}
		var err error
		buf, err = EncodeRecord(buf, r)
		if err != nil {
			t.Fatal(err)
		}
		prev = r.Hash
		records = append(records, r)
	}
	got, err := ReadLog(buf)
	if err != nil {
		t.Fatalf("minted chain does not validate: %v", err)
	}
	return got
}

func TestVerifyCleanMultiRecord(t *testing.T) {
	jb := newJournalBuilder(t, core.Params384)
	src := rng.New(11)
	jb.floats("a", rng.UniformSet(src, 100, -1, 1))
	jb.floats("b", rng.UniformSet(src, 50, -10, 10))
	h, err := core.FromFloat64(core.Params384, 0.0625)
	if err != nil {
		t.Fatal(err)
	}
	jb.hp("a", h)
	rec0 := []Entry{jb.entry("a"), jb.entry("b")}

	jb.floats("a", rng.UniformSet(src, 200, -1, 1))
	jb.floats("b", rng.UniformSet(src, 25, -1, 1))
	rec1 := []Entry{jb.entry("a"), jb.entry("b")}

	res, err := Verify(chain(t, rec0, rec1), NewJournalReader(bytes.NewReader(jb.buf)))
	if err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	if res.Records != 2 || res.FramesReplayed != 5 || res.ValuesReplayed != 375 {
		t.Fatalf("summary %+v", res)
	}
	if res.UnauditedFrames != 0 || res.TornTail {
		t.Fatalf("summary %+v", res)
	}
	if fe := res.Final["a"]; fe.Frames != 3 {
		t.Fatalf("final watermark for a: %+v", fe)
	}
}

func TestVerifySeedContinuation(t *testing.T) {
	jb := newJournalBuilder(t, core.Params384)
	src := rng.New(12)
	jb.floats("a", rng.UniformSet(src, 40, -1, 1))
	rec0 := []Entry{jb.entry("a")}
	// Daemon restarts: the restore hand-off carries the snapshot state.
	jb.seed("a")
	jb.floats("a", rng.UniformSet(src, 60, -1, 1))
	rec1 := []Entry{jb.entry("a")}

	res, err := Verify(chain(t, rec0, rec1), NewJournalReader(bytes.NewReader(jb.buf)))
	if err != nil {
		t.Fatalf("seed continuation failed: %v", err)
	}
	if res.Records != 2 {
		t.Fatalf("summary %+v", res)
	}
}

func TestVerifyDivergences(t *testing.T) {
	mk := func() (*journalBuilder, *rng.Source) {
		return newJournalBuilder(t, core.Params384), rng.New(13)
	}

	t.Run("journal-missing-frames", func(t *testing.T) {
		jb, src := mk()
		jb.floats("a", rng.UniformSet(src, 10, -1, 1))
		e := jb.entry("a")
		e.Frames = 2 // the log attests a frame the journal never recorded
		_, err := Verify(chain(t, []Entry{e}), NewJournalReader(bytes.NewReader(jb.buf)))
		var d *Divergence
		if !errors.As(err, &d) || !strings.Contains(d.Reason, "never recorded") {
			t.Fatalf("err = %v", err)
		}
		if d.Seq != 0 || d.Name != "a" {
			t.Fatalf("divergence %+v", d)
		}
	})

	t.Run("journal-extra-frames", func(t *testing.T) {
		jb, src := mk()
		jb.floats("a", rng.UniformSet(src, 10, -1, 1))
		rec0 := []Entry{jb.entry("a")}
		jb.floats("a", rng.UniformSet(src, 10, -1, 1))
		jb.floats("a", rng.UniformSet(src, 10, -1, 1))
		e := jb.entry("a")
		e.Frames = 2 // watermark below what the journal holds by the time it is reached
		// Force overshoot: a second record whose watermark regresses.
		rec1 := []Entry{jb.entry("a")}
		rec1[0].Frames = 3
		recomputed := chain(t, rec0, rec1, []Entry{e})
		_, err := Verify(recomputed, NewJournalReader(bytes.NewReader(jb.buf)))
		var d *Divergence
		if !errors.As(err, &d) || !strings.Contains(d.Reason, "never attested") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("sum-divergence", func(t *testing.T) {
		jb, src := mk()
		jb.floats("a", rng.UniformSet(src, 10, -1, 1))
		e := jb.entry("a")
		// Attest a lying envelope (same format, different value).
		lie := core.NewSuper(core.Params384)
		lie.Add(1.0)
		env, err := lie.Sum().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		e.Env = env
		e.Digest = DigestEnv(env)
		_, verr := Verify(chain(t, []Entry{e}), NewJournalReader(bytes.NewReader(jb.buf)))
		var d *Divergence
		if !errors.As(verr, &d) || !strings.Contains(d.Reason, "replayed sum diverges") {
			t.Fatalf("err = %v", verr)
		}
	})

	t.Run("adds-divergence", func(t *testing.T) {
		jb, src := mk()
		jb.floats("a", rng.UniformSet(src, 10, -1, 1))
		e := jb.entry("a")
		e.Adds = 99
		_, err := Verify(chain(t, []Entry{e}), NewJournalReader(bytes.NewReader(jb.buf)))
		var d *Divergence
		if !errors.As(err, &d) || !strings.Contains(d.Reason, "log attests 99") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("seed-breaks-trajectory", func(t *testing.T) {
		jb, src := mk()
		jb.floats("a", rng.UniformSet(src, 10, -1, 1))
		rec0 := []Entry{jb.entry("a")}
		// A seed claiming fewer frames than journaled: accepted frames were
		// lost before the snapshot it restored from.
		st := jb.acc("a")
		env, err := st.s.Sum().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		jb.buf, err = AppendJournalEntry(jb.buf, &JournalEntry{
			Kind: JournalSeed, Name: "a", Frames: 0, Adds: 0, Payload: env,
		})
		if err != nil {
			t.Fatal(err)
		}
		jb.floats("a", rng.UniformSet(src, 10, -1, 1))
		e := jb.entry("a")
		_, verr := Verify(chain(t, rec0, []Entry{e}), NewJournalReader(bytes.NewReader(jb.buf)))
		var d *Divergence
		if !errors.As(verr, &d) || !strings.Contains(d.Reason, "accepted frames were lost") {
			t.Fatalf("err = %v", verr)
		}
	})
}

func TestVerifyUnauditedAndTornTail(t *testing.T) {
	jb := newJournalBuilder(t, core.Params384)
	src := rng.New(14)
	jb.floats("a", rng.UniformSet(src, 10, -1, 1))
	rec0 := []Entry{jb.entry("a")}
	// Post-watermark traffic: one audited acc, one acc no record attests.
	jb.floats("a", rng.UniformSet(src, 10, -1, 1))
	jb.floats("ghost", rng.UniformSet(src, 5, -1, 1))
	full := append([]byte(nil), jb.buf...)

	res, err := Verify(chain(t, rec0), NewJournalReader(bytes.NewReader(full)))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if res.UnauditedFrames != 2 {
		t.Fatalf("unaudited %d, want 2 (1 audited tail + 1 ghost)", res.UnauditedFrames)
	}
	if res.TornTail {
		t.Fatal("clean tail reported torn")
	}

	// Torn final entry: the daemon died mid-append. No verified link breaks.
	torn := full[:len(full)-3]
	res, err = Verify(chain(t, rec0), NewJournalReader(bytes.NewReader(torn)))
	if err != nil {
		t.Fatalf("verify with torn tail: %v", err)
	}
	if !res.TornTail {
		t.Fatal("torn tail not reported")
	}
}
