package audit

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzAuditLogDecode throws arbitrary bytes at the audit-log reader. The
// invariants: no panic, allocations bounded by input size (enforced by the
// decoder's need() checks — a fuzz input lying about counts cannot balloon),
// and any log that validates must re-encode to the identical image.
func FuzzAuditLogDecode(f *testing.F) {
	acc := core.NewSuper(core.Params384)
	acc.AddSlice([]float64{1.5, -0.25, 1e-9})
	env, err := acc.Sum().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	e := Entry{Name: "acc", Frames: 3, Adds: 3, Digest: DigestEnv(env), Env: env}
	r0 := &Record{Seq: 0, Reason: "periodic", Entries: []Entry{e}}
	seed, err := EncodeRecord(nil, r0)
	if err != nil {
		f.Fatal(err)
	}
	r1 := &Record{Seq: 1, PrevHash: r0.Hash, Reason: "sigterm", Entries: []Entry{e}}
	seed2, err := EncodeRecord(append([]byte(nil), seed...), r1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed2)
	f.Add(seed[:len(seed)-5])
	f.Add([]byte("HPAR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := ReadLog(data)
		if err != nil {
			return
		}
		// A valid log must round-trip byte for byte.
		var out []byte
		for _, r := range records {
			prevHash := r.Hash
			var e2 error
			out, e2 = EncodeRecord(out, r)
			if e2 != nil {
				t.Fatalf("re-encode of validated record %d: %v", r.Seq, e2)
			}
			if r.Hash != prevHash {
				t.Fatalf("re-encode changed record %d hash", r.Seq)
			}
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("validated log does not round-trip: %d bytes in, %d out", len(data), len(out))
		}
	})
}
