package server

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// The service's headline property, proved end to end: K concurrent clients
// streaming shuffled partitions of one workload over real HTTP produce a
// final accumulator bit-identical (MarshalText equal) to a serial oracle,
// for every seed, shard count, and scheduling. Run under -race in CI.

// partitions deals xs round-robin into k slices and shuffles each slice's
// internal order with its own seeded stream, so neither the partition nor
// the per-client order resembles the oracle's left-to-right pass.
func partitions(xs []float64, k int, seed uint64) [][]float64 {
	parts := make([][]float64, k)
	for i, x := range xs {
		parts[i%k] = append(parts[i%k], x)
	}
	for i := range parts {
		rng.New(seed + uint64(i)).Shuffle(parts[i])
	}
	return parts
}

func TestConcurrentClientsOrderInvariance(t *testing.T) {
	const clients = 8
	for _, seed := range []uint64{1, 20160523} {
		for _, shards := range []int{1, 4} {
			s, c := newTestServer(t, Config{Shards: shards})
			xs := rng.UniformSet(rng.New(seed), 40000, -0.5, 0.5)
			want := oracleText(t, s.Config().Params, xs)
			if _, err := c.Create("inv", core.Params{}); err != nil {
				t.Fatal(err)
			}
			parts := partitions(xs, clients, seed)
			var wg sync.WaitGroup
			errs := make([]error, clients)
			stats := make([]StreamStats, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cl := &Client{Base: c.Base, HTTP: c.HTTP, FrameLen: 128 + 64*i,
						ReqFrames: 4 + i, RetryWait: time.Millisecond}
					stats[i], errs[i] = cl.Stream("inv", parts[i])
				}(i)
			}
			wg.Wait()
			total := 0
			for i := 0; i < clients; i++ {
				if errs[i] != nil {
					t.Fatalf("seed=%d shards=%d client %d: %v", seed, shards, i, errs[i])
				}
				total += stats[i].Values
			}
			if total != len(xs) {
				t.Fatalf("seed=%d: acked %d values, want %d", seed, total, len(xs))
			}
			info, err := c.Get("inv")
			if err != nil {
				t.Fatal(err)
			}
			if info.HP != want {
				t.Fatalf("seed=%d shards=%d:\n server %s\n oracle %s", seed, shards, info.HP, want)
			}
			if info.Err != "" {
				t.Fatalf("sticky error %q", info.Err)
			}
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")

	s1 := New(Config{Shards: 3})
	xs := rng.UniformSet(rng.New(5), 10000, -0.5, 0.5)
	a, _, err := s1.Create("keep", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(xs); off += 1000 {
		chunk := append([]float64(nil), xs[off:off+1000]...)
		if err := a.AddFloats(chunk); err != nil {
			t.Fatal(err)
		}
	}
	// A second accumulator with a different format and a sticky error.
	b, _, err := s1.Create("small", core.Params128)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddFloats([]float64{2, 1e-30}); err != nil {
		t.Fatal(err)
	}
	before, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	beforeSmall, err := b.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Restart: restore must reproduce the exact limbs, counters, formats,
	// and the sticky error.
	s2 := New(Config{Shards: 7}) // different shard count on purpose
	n, err := s2.Restore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n != 2 {
		t.Fatalf("restored %d accumulators, want 2", n)
	}
	after, err := s2.Lookup("keep").State()
	if err != nil {
		t.Fatal(err)
	}
	if after.HP != before.HP {
		t.Fatalf("restored limbs differ:\n before %s\n  after %s", before.HP, after.HP)
	}
	if after.Adds != before.Adds {
		t.Fatalf("adds %d, want %d", after.Adds, before.Adds)
	}
	if after.Frames != before.Frames {
		t.Fatalf("frames %d, want %d", after.Frames, before.Frames)
	}
	afterSmall, err := s2.Lookup("small").State()
	if err != nil {
		t.Fatal(err)
	}
	if afterSmall.HP != beforeSmall.HP || afterSmall.N != 2 {
		t.Fatalf("small: %+v vs %+v", afterSmall, beforeSmall)
	}
	if afterSmall.Err != beforeSmall.Err || afterSmall.Err == "" {
		t.Fatalf("sticky error lost: %q vs %q", afterSmall.Err, beforeSmall.Err)
	}

	// The restored accumulator continues the same exact trajectory: adding
	// the same tail to the oracle and to the restored server agree.
	tail := rng.UniformSet(rng.New(6), 3000, -0.5, 0.5)
	tcopy := append([]float64(nil), tail...)
	if err := s2.Lookup("keep").AddFloats(tcopy); err != nil {
		t.Fatal(err)
	}
	final, err := s2.Lookup("keep").State()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleText(t, core.Params384, append(append([]float64(nil), xs...), tail...)); final.HP != want {
		t.Fatalf("post-restore trajectory diverged:\n server %s\n oracle %s", final.HP, want)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	s := New(Config{Shards: 1})
	if _, _, err := s.Create("x", core.Params{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every damaged image must be rejected before anything is created, so
	// one server sees every attempt.
	s2 := New(Config{Shards: 1})
	defer s2.Close()
	bad := filepath.Join(dir, "bad.bin")
	restore := func(img []byte) error {
		t.Helper()
		if err := os.WriteFile(bad, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := s2.Restore(bad)
		return err
	}
	for pos := 0; pos < len(data); pos++ {
		mauled := append([]byte(nil), data...)
		mauled[pos] ^= 0x20
		if err := restore(mauled); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if err := restore(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if n := len(s2.Names()); n != 0 {
		t.Fatalf("rejected images created %d accumulators", n)
	}
}

func TestDeleteUnderLoadIsClean(t *testing.T) {
	// Deleting an accumulator while clients stream into it must end every
	// request with a clean status (accepted, 404, or 410) and leak nothing;
	// the race detector guards the shard teardown.
	_, c := newTestServer(t, Config{Shards: 2})
	if _, err := c.Create("doomed", core.Params{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &Client{Base: c.Base, HTTP: c.HTTP, FrameLen: 16, RetryWait: time.Millisecond, MaxRetries: 3}
			xs := rng.UniformSet(rng.New(uint64(i)), 2000, -1, 1)
			_, _ = cl.Stream("doomed", xs) // errors expected once deleted
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	c.Delete("doomed")
	wg.Wait()
}
