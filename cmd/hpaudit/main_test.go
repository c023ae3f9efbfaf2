package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/server"
)

// writeAuditedRun produces a real journal + audit log pair by driving an
// in-process replicated server, and returns the oracle total.
func writeAuditedRun(t *testing.T, jpath, lpath string) string {
	t.Helper()
	s := server.New(server.Config{Shards: 2, Replicas: 3, Quorum: 2})
	if err := s.EnableAudit(jpath, lpath); err != nil {
		t.Fatal(err)
	}
	a, _, err := s.Create("metrics", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(17), 700, -1, 1)
	for off := 0; off < len(xs); off += 70 {
		if err := a.AddFloats(append([]float64(nil), xs[off:off+70]...)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AuditRecord("periodic"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AuditRecord("sigterm"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.CloseAudit(); err != nil {
		t.Fatal(err)
	}
	acc := core.NewSuper(core.Params384)
	acc.AddSlice(xs)
	txt, err := acc.Sum().MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	return string(txt)
}

func TestHPAuditVerifiesCleanRunAndProvesTotal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "frames.hpfj")
	lpath := filepath.Join(dir, "audit.hpal")
	oracle := writeAuditedRun(t, jpath, lpath)

	var out bytes.Buffer
	if err := run([]string{"-log", lpath, "-journal", jpath, "-v"}, &out); err != nil {
		t.Fatalf("clean run did not verify: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"chain: 2 record(s)", "every watermark matches", "final metrics"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	err := run([]string{"-log", lpath, "-journal", jpath, "-acc", "metrics", "-expect", oracle}, &out)
	if err != nil {
		t.Fatalf("true total not proven: %v", err)
	}
	if !strings.Contains(out.String(), "PROVEN") {
		t.Fatalf("no proof line:\n%s", out.String())
	}

	// A falsified reported total must be rejected.
	err = run([]string{"-log", lpath, "-journal", jpath, "-acc", "metrics", "-expect", "0x0p0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "DIVERGENT") {
		t.Fatalf("falsified total accepted: %v", err)
	}
}

func TestHPAuditNamesDivergentLink(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "frames.hpfj")
	lpath := filepath.Join(dir, "audit.hpal")
	writeAuditedRun(t, jpath, lpath)

	// Corrupt the tail record: the chain walk must name record 1.
	logData, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	logData[len(logData)-7] ^= 0x20
	mauled := filepath.Join(dir, "mauled.hpal")
	if err := os.WriteFile(mauled, logData, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-log", mauled, "-journal", jpath}, &out)
	if err == nil || !strings.Contains(err.Error(), "DIVERGENT") || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("tampered log not named: %v", err)
	}

	// Truncate the journal below the attested watermark: the replay must
	// name the accumulator whose frames went missing.
	jdata, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.hpfj")
	if err := os.WriteFile(cut, jdata[:len(jdata)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-log", lpath, "-journal", cut}, &out)
	if err == nil || !strings.Contains(err.Error(), "DIVERGENT") || !strings.Contains(err.Error(), `"metrics"`) {
		t.Fatalf("truncated journal not named: %v", err)
	}
}
