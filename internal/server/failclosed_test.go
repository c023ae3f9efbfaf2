package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wire"
)

// A float frame is folded straight from its payload bytes, so the NaN/±Inf
// scan in readFrames is the only thing standing between a poisoned value
// and the replicas. A POST whose last frame ends in a NaN must get 400
// with frames_accepted counting only the frames before it, and that frame
// must reach no replica, no journal entry and no counter: every replica
// holds the oracle sum of the accepted prefix, byte-identical to the
// agreed state, and the journal holds exactly the accepted payloads.
func TestIngestFailClosedOnNonFiniteLastValue(t *testing.T) {
	const frames, perFrame = 5, 300
	jpath, lpath, _ := auditPaths(t)
	s := New(Config{Shards: 2, Replicas: 3})
	defer s.Close()
	if err := s.EnableAudit(jpath, lpath); err != nil {
		t.Fatal(err)
	}
	a, _, err := s.Create("poison", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(17), frames*perFrame, -1e3, 1e3)
	xs[len(xs)-1] = math.NaN()
	var body []byte
	for f := 0; f < frames; f++ {
		body = AppendFloatFrame(body, xs[f*perFrame:(f+1)*perFrame])
	}

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/acc/poison/add", bytes.NewReader(body)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400: %s", rr.Code, rr.Body)
	}
	var res AddResult
	if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.FramesAccepted != frames-1 || res.ValuesAccepted != (frames-1)*perFrame {
		t.Fatalf("accepted %d frames / %d values, want %d / %d", res.FramesAccepted, res.ValuesAccepted,
			frames-1, (frames-1)*perFrame)
	}
	if want := "value 299 of 300"; !strings.Contains(res.Error, want) {
		t.Fatalf("error %q does not name %q", res.Error, want)
	}

	prefix := xs[:(frames-1)*perFrame]
	want := oracleText(t, core.Params384, prefix)
	a.mu.Lock()
	for _, r := range a.replicas {
		st := r.eng.state()
		txt, err := st.sum.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(txt) != want || st.err != nil || st.frames != frames-1 || st.adds != uint64(len(prefix)) {
			t.Errorf("replica %d: sum %s err %v frames %d adds %d; want the accepted prefix %s, %d frames, %d adds",
				r.id, txt, st.err, st.frames, st.adds, want, frames-1, len(prefix))
		}
	}
	a.mu.Unlock()
	info, err := a.Certified()
	if err != nil {
		t.Fatal(err)
	}
	if info.HP != want || info.Err != "" {
		t.Fatalf("agreed sum %s (err %q), want the accepted prefix's oracle %s", info.HP, info.Err, want)
	}

	if err := s.CloseAudit(); err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	jr := audit.NewJournalReader(jf)
	n := 0
	for ; ; n++ {
		e, err := jr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		wantPayload := wire.AppendFloat64s(nil, xs[n*perFrame:(n+1)*perFrame])
		if n >= frames-1 || e.Kind != audit.JournalFloats || e.Name != "poison" || !bytes.Equal(e.Payload, wantPayload) {
			t.Fatalf("journal entry %d (kind %q, %q, %d bytes) is not accepted frame %d", n, e.Kind, e.Name, len(e.Payload), n)
		}
	}
	if n != frames-1 {
		t.Fatalf("journal holds %d entries, want the %d accepted frames", n, frames-1)
	}
}

// AddFloats takes the same path as a streamed frame, scan included: a
// NaN rejects the frame with ErrNotFinite and leaves the replicas and the
// journal as they were, so the accumulator carries no sticky error and
// the journal still replays cleanly against an audit record.
func TestAddFloatsRejectsNonFinite(t *testing.T) {
	jpath, lpath, _ := auditPaths(t)
	s := New(Config{Shards: 1, Replicas: 3})
	defer s.Close()
	if err := s.EnableAudit(jpath, lpath); err != nil {
		t.Fatal(err)
	}
	a, _, err := s.Create("lib", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	good := []float64{1.5, -2.25, 0.125}
	if err := a.AddFloats(good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := a.AddFloats([]float64{4, bad}); !errors.Is(err, core.ErrNotFinite) {
			t.Fatalf("AddFloats with %v: err %v, want ErrNotFinite", bad, err)
		}
	}
	info, err := a.Certified()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleText(t, core.Params384, good); info.HP != want || info.Err != "" || info.Frames != 1 || info.Adds != 3 {
		t.Fatalf("state %s (err %q, %d frames, %d adds), want %s from the one good frame", info.HP, info.Err, info.Frames, info.Adds, want)
	}
	if _, err := s.AuditRecord("check"); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseAudit(); err != nil {
		t.Fatal(err)
	}
	logData, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := audit.ReadLog(logData)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	res, err := audit.Verify(records, audit.NewJournalReader(jf))
	if err != nil {
		t.Fatalf("journal no longer replays: %v", err)
	}
	if res.FramesReplayed != 1 {
		t.Fatalf("replayed %d frames, want the 1 accepted", res.FramesReplayed)
	}
}
