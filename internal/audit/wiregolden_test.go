package audit

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
)

// Golden wire bytes for the HPAR audit log: a two-record chain encoded from
// fixed inputs must match hex captured once from the encoder, and that hex
// must decode and chain-verify back to the same records. A codec refactor
// that changes a single byte of the format fails here.

const (
	goldenEnvHalf = "0100020001" + "0000000000000000" + "8000000000000000"
	goldenEnvTwo  = "0100020001" + "0000000000000002" + "0000000000000000"

	goldenRecord0 = "48504152" + "01" + zeroHash + "0000000000000000" +
		"07" + "7369677465726d" + "00000001" +
		// entry "a": frames 2, adds 3, no error text, digest, envelope of 0.5
		"0001" + "61" + "0000000000000002" + "0000000000000003" + "0000" +
		"3bd25a8ef440b1569db48ce29e002f74" +
		"ff6d7866c510f9d3a27de20d03e180c0" + "00000015" + goldenEnvHalf +
		"10cf5896"
	goldenRecord1 = "48504152" + "01" + "248bed8d56f68605c20b037fec49ec38" +
		"49046ea1dc396ac02b7ad5f383795391" + "0000000000000001" +
		"08" + "706572696f646963" + "00000001" +
		// entry "a": frames 3, adds 4, error text "sticky", digest, envelope of 2
		"0001" + "61" + "0000000000000003" + "0000000000000004" + "0006" + "737469636b79" +
		"292c7b8eaab804f09d3e7f86ab35117b" +
		"e6dc269c6352b986640487ed5c8cafa6" + "00000015" + goldenEnvTwo +
		"b1050634"

	zeroHash = "0000000000000000000000000000000000000000000000000000000000000000"
)

func goldenEntry(t *testing.T, v float64, frames, adds uint64, errText string) Entry {
	t.Helper()
	h, err := core.FromFloat64(core.Params128, v)
	if err != nil {
		t.Fatal(err)
	}
	env, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return Entry{Name: "a", Frames: frames, Adds: adds, ErrText: errText, Digest: DigestEnv(env), Env: env}
}

func TestGoldenAuditRecords(t *testing.T) {
	r0 := &Record{Seq: 0, Reason: "sigterm", Entries: []Entry{goldenEntry(t, 0.5, 2, 3, "")}}
	buf, err := EncodeRecord(nil, r0)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Record{Seq: 1, PrevHash: r0.Hash, Reason: "periodic", Entries: []Entry{goldenEntry(t, 2, 3, 4, "sticky")}}
	if buf, err = EncodeRecord(buf, r1); err != nil {
		t.Fatal(err)
	}
	want := goldenRecord0 + goldenRecord1
	if g := hex.EncodeToString(buf); g != want {
		t.Fatalf("audit log bytes changed:\n got %s\nwant %s", g, want)
	}

	data, err := hex.DecodeString(want)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ReadLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("decoded %d records, want 2", len(records))
	}
	for i, w := range []*Record{r0, r1} {
		g := records[i]
		if g.Seq != w.Seq || g.PrevHash != w.PrevHash || g.Reason != w.Reason || g.Hash != w.Hash ||
			len(g.Entries) != 1 {
			t.Fatalf("record %d decoded to %+v, want %+v", i, g, w)
		}
		ge, we := g.Entries[0], w.Entries[0]
		if ge.Name != we.Name || ge.Frames != we.Frames || ge.Adds != we.Adds || ge.ErrText != we.ErrText ||
			ge.Digest != we.Digest || hex.EncodeToString(ge.Env) != hex.EncodeToString(we.Env) {
			t.Fatalf("record %d entry decoded to %+v, want %+v", i, ge, we)
		}
	}
}
