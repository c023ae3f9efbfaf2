package gossip

import (
	"errors"
	"testing"

	"repro/internal/core"
)

func mkHP(t testing.TB, p core.Params, xs ...float64) *core.HP {
	t.Helper()
	a := core.NewAccumulator(p)
	a.AddAll(xs)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	return a.Sum().Clone()
}

// testEnv512 builds an envelope in the wrong (512-bit) format for
// parameter-mismatch cases.
func testEnv512(t testing.TB, xs ...float64) []byte {
	t.Helper()
	return testEnv(t, core.Params512, xs...)
}

func mkEntry(t testing.TB, acc, node string, epoch, version uint64, xs ...float64) Entry {
	t.Helper()
	return Entry{
		Acc: acc, Node: node, Epoch: epoch, Version: version,
		Adds: uint64(len(xs)), Frames: version,
		Env: testEnv(t, core.Params384, xs...),
	}
}

func TestStoreJoinSemantics(t *testing.T) {
	s := NewStore(core.Params384)

	e1 := mkEntry(t, "acc", "n1", 1, 3, 1.0, 2.0, 3.0)
	if applied, err := s.Put(e1); err != nil || !applied {
		t.Fatalf("fresh put: applied=%v err=%v", applied, err)
	}
	// Idempotent: the identical entry is a no-op, not a double count.
	if applied, err := s.Put(e1); err != nil || applied {
		t.Fatalf("duplicate put: applied=%v err=%v", applied, err)
	}
	// Stale version ignored.
	if applied, err := s.Put(mkEntry(t, "acc", "n1", 1, 2, 1.0, 2.0)); err != nil || applied {
		t.Fatalf("stale put: applied=%v err=%v", applied, err)
	}
	// Newer version wins.
	if applied, err := s.Put(mkEntry(t, "acc", "n1", 1, 5, 1.0, 2.0, 3.0, 4.0, 5.0)); err != nil || !applied {
		t.Fatalf("newer put: applied=%v err=%v", applied, err)
	}
	// Same version, different bytes: equivocation.
	if _, err := s.Put(mkEntry(t, "acc", "n1", 1, 5, 9.0)); !errors.Is(err, ErrEquivocation) {
		t.Fatalf("equivocating put: err=%v, want ErrEquivocation", err)
	}
	// Wrong parameters rejected before touching the map.
	bad := mkEntry(t, "acc", "n1", 1, 9)
	bad.Env = testEnv512(t, 1.0)
	if _, err := s.Put(bad); !errors.Is(err, ErrParams) {
		t.Fatalf("param-mismatched put: err=%v, want ErrParams", err)
	}
	// Garbage envelope rejected.
	bad.Env = []byte{1, 2, 3}
	if _, err := s.Put(bad); err == nil {
		t.Fatal("garbage envelope accepted")
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d entries, want 1", s.Len())
	}
}

// TestStorePutRejectsTrailingBytes: a contribution envelope is exactly one
// FrameHP frame. A valid frame followed by junk must be rejected, not
// stored: otherwise two different byte strings carry the same partial and
// the equivocation check compares the junk.
func TestStorePutRejectsTrailingBytes(t *testing.T) {
	s := NewStore(core.Params384)
	e := mkEntry(t, "acc", "n1", 1, 3, 1.0, 2.0)
	e.Env = append(e.Env, 0xde, 0xad)
	if applied, err := s.Put(e); err == nil || applied {
		t.Fatalf("junk-trailed envelope: applied=%v err=%v", applied, err)
	}
	if s.Len() != 0 {
		t.Fatalf("store kept %d entries, want 0", s.Len())
	}
}

// TestStoreClusterSumOrderInvariant: two stores fed the same contributions
// in different orders (and with different stale/duplicate interleavings)
// must produce bit-identical cluster reads — HP text and SHA-256 digest.
func TestStoreClusterSumOrderInvariant(t *testing.T) {
	entries := []Entry{
		mkEntry(t, "acc", "n1", 1, 2, 1.5, -2.25),
		mkEntry(t, "acc", "n2", 1, 3, 1e30, -1e30, 4.125),
		mkEntry(t, "acc", "n3", 5, 1, 1e-30),
		mkEntry(t, "acc", "n3", 7, 2, 0.125, 0.25), // same node, later epoch
	}
	a, b := NewStore(core.Params384), NewStore(core.Params384)
	for _, e := range entries {
		if _, err := a.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	// Reverse order, with a stale version and a duplicate mixed in.
	for i := len(entries) - 1; i >= 0; i-- {
		if _, err := b.Put(entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	b.Put(mkEntry(t, "acc", "n2", 1, 1, 7.0)) // stale: ignored
	b.Put(entries[0])                         // duplicate: ignored

	ia, err := a.ClusterSum("acc")
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.ClusterSum("acc")
	if err != nil {
		t.Fatal(err)
	}
	if ia.HP != ib.HP || ia.Digest != ib.Digest {
		t.Fatalf("cluster reads diverge:\n a: %s %s\n b: %s %s", ia.HP, ia.Digest, ib.HP, ib.Digest)
	}
	if ia.Contributors != 4 || ia.Nodes != 3 {
		t.Fatalf("contributors=%d nodes=%d, want 4/3", ia.Contributors, ia.Nodes)
	}

	// And the merged bits must equal a serial oracle over all values.
	oracle := mkHP(t, core.Params384, 1.5, -2.25, 1e30, -1e30, 4.125, 1e-30, 0.125, 0.25)
	txt, err := oracle.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if ia.HP != string(txt) {
		t.Fatalf("merged HP %s != oracle %s", ia.HP, txt)
	}
}

func TestStoreDelta(t *testing.T) {
	local, remote := NewStore(core.Params384), NewStore(core.Params384)
	shared := mkEntry(t, "acc", "n1", 1, 4, 1.0)
	local.Put(shared)
	remote.Put(shared)
	onlyLocal := mkEntry(t, "acc", "n2", 1, 2, 2.0)
	local.Put(onlyLocal)
	remoteNewer := mkEntry(t, "acc", "n3", 1, 9, 3.0)
	remote.Put(remoteNewer)
	remote.Put(mkEntry(t, "acc", "n4", 1, 1, 4.0))

	ship, want, mismatches := local.Delta(remote.Digests())
	if len(ship) != 1 || ship[0].Node != "n2" {
		t.Fatalf("ship=%+v, want just n2's entry", ship)
	}
	if len(want) != 2 {
		t.Fatalf("want=%+v, want n3 and n4 digests", want)
	}
	if mismatches != 3 {
		t.Fatalf("mismatches=%d, want 3", mismatches)
	}

	// Identical stores: no traffic, no mismatches.
	ship, want, mismatches = local.Delta(local.Digests())
	if len(ship) != 0 || len(want) != 0 || mismatches != 0 {
		t.Fatalf("self-delta not empty: ship=%d want=%d mismatches=%d", len(ship), len(want), mismatches)
	}
}

func TestStoreCheckpointRoundTrip(t *testing.T) {
	s := NewStore(core.Params384)
	s.Put(mkEntry(t, "acc", "n1", 1, 2, 1.0, 2.0))
	s.Put(mkEntry(t, "other", "n2", 3, 1, -7.5))
	blob, err := s.Checkpoint(42)
	if err != nil {
		t.Fatal(err)
	}

	restored := NewStore(core.Params384)
	epoch, err := restored.RestoreCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 {
		t.Fatalf("restored epoch %d, want 42", epoch)
	}
	for _, acc := range []string{"acc", "other"} {
		a, err := s.ClusterSum(acc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.ClusterSum(acc)
		if err != nil {
			t.Fatal(err)
		}
		if a.HP != b.HP || a.Digest != b.Digest {
			t.Fatalf("%s: restored read diverges", acc)
		}
	}

	// Corruption is rejected, not half-applied.
	for _, corrupt := range [][]byte{
		nil,
		blob[:len(blob)-1],
		append([]byte("XXXX"), blob[4:]...),
	} {
		if _, err := NewStore(core.Params384).RestoreCheckpoint(corrupt); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("corrupt blob: err=%v, want ErrBadCheckpoint", err)
		}
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := NewStore(core.Params384).RestoreCheckpoint(flipped); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bit-flipped blob: err=%v, want ErrBadCheckpoint", err)
	}
}
