package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/rng"
)

// oracleHPText is the serial reference sum's canonical text.
func oracleHPText(t *testing.T, p core.Params, xs []float64) string {
	t.Helper()
	acc := core.NewSuper(p)
	acc.AddSlice(xs)
	txt, err := acc.Sum().MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	return string(txt)
}

func feedFloats(t *testing.T, a *Accumulator, xs []float64, frameLen int) {
	t.Helper()
	for off := 0; off < len(xs); off += frameLen {
		end := min(off+frameLen, len(xs))
		frame := append([]float64(nil), xs[off:end]...)
		if err := a.AddFloats(frame); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCertifiedCleanAgreement(t *testing.T) {
	s := New(Config{Shards: 2, Replicas: 3, Quorum: 2})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(21), 2000, -1, 1)
	feedFloats(t, a, xs, 128)

	info, err := a.Certified()
	if err != nil {
		t.Fatal(err)
	}
	if info.HP != oracleHPText(t, core.Params384, xs) {
		t.Fatalf("certified sum diverges from oracle: %s", info.HP)
	}
	cert := info.Cert
	if cert == nil {
		t.Fatal("certified read returned no certificate")
	}
	if cert.K != 2 || cert.N != 3 || len(cert.Shares) != 3 {
		t.Fatalf("certificate shape: %+v", cert)
	}
	for _, sh := range cert.Shares {
		if sh.Digest != cert.Digest {
			t.Fatalf("replica %d digest differs in a clean run", sh.Replica)
		}
	}
	if err := cert.Verify(info.HP); err != nil {
		t.Fatalf("certificate does not verify its own value: %v", err)
	}
	if cert.Frames != info.Frames || cert.Adds != info.Adds {
		t.Fatalf("certificate counters %d/%d, info %d/%d", cert.Frames, cert.Adds, info.Frames, info.Adds)
	}
}

// A replica that lies once: the read fails closed, the liar is reseeded,
// and the next read serves the correct value under a full certificate.
func TestLyingReplicaFailsClosedThenHeals(t *testing.T) {
	plan, err := faults.ParseReplicaPlan("seed=42;lie:replica=1,limit=1")
	if err != nil {
		t.Fatal(err)
	}
	ri := plan.NewReplicaInjector()
	s := New(Config{Shards: 2, Replicas: 3, Quorum: 2, ReportHook: ri.OnReport})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(22), 1000, -1, 1)
	feedFloats(t, a, xs, 100)

	want := oracleHPText(t, core.Params384, xs)
	_, err = a.Certified()
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("lying replica did not fail the read closed: %v", err)
	}
	// The divergence pass quarantined and reseeded replica 1; the lie rule
	// is spent (limit=1), so the healed replica now answers honestly.
	info, err := a.Certified()
	if err != nil {
		t.Fatalf("read after reseed: %v", err)
	}
	if info.HP != want {
		t.Fatalf("served value wrong after heal: %s", info.HP)
	}
	if err := info.Cert.Verify(info.HP); err != nil {
		t.Fatal(err)
	}
	// New frames fold into the reseeded replica too: it converged
	// byte-identically and keeps tracking.
	tail := rng.UniformSet(rng.New(23), 500, -1, 1)
	feedFloats(t, a, tail, 100)
	info, err = a.Certified()
	if err != nil {
		t.Fatal(err)
	}
	if info.HP != oracleHPText(t, core.Params384, append(append([]float64(nil), xs...), tail...)) {
		t.Fatal("reseeded replica broke the trajectory")
	}
}

// An equivocating replica lies again after its reseed: second strike, and
// it is quarantined permanently. The remaining 2-of-3 quorum keeps serving.
func TestEquivocatingReplicaStruckOut(t *testing.T) {
	plan, err := faults.ParseReplicaPlan("seed=7;equivocate:replica=0")
	if err != nil {
		t.Fatal(err)
	}
	ri := plan.NewReplicaInjector()
	s := New(Config{Shards: 1, Replicas: 3, Quorum: 2, ReportHook: ri.OnReport})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(24), 800, -1, 1)
	feedFloats(t, a, xs, 80)
	want := oracleHPText(t, core.Params384, xs)

	// The equivocator corrupts alternating reports. Drive reads until it
	// has struck out; no read may ever serve a wrong value.
	sawDivergence := 0
	for i := 0; i < 6; i++ {
		info, err := a.Certified()
		if errors.Is(err, ErrDiverged) {
			sawDivergence++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if info.HP != want {
			t.Fatalf("read %d served a wrong value: %s", i, info.HP)
		}
	}
	if sawDivergence == 0 {
		t.Fatal("equivocating replica never tripped a divergence")
	}
	a.mu.Lock()
	status := a.replicas[0].status
	actives := len(a.active())
	a.mu.Unlock()
	if status != replicaQuarantined {
		t.Fatalf("equivocating replica not permanently quarantined (strikes=%d)", a.replicas[0].strikes)
	}
	if actives != 2 {
		t.Fatalf("%d active replicas, want 2", actives)
	}
	// 2-of-3 still meets quorum: reads keep working, certificates carry
	// only the surviving shares.
	info, err := a.Certified()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Cert.Shares) != 2 || info.Cert.N != 3 {
		t.Fatalf("post-quarantine certificate: %+v", info.Cert)
	}
	if err := info.Cert.Verify(info.HP); err != nil {
		t.Fatal(err)
	}
}

// A replica replaying frozen stale state is a minority against the live
// quorum and gets quarantined like any liar.
func TestReplayReplicaQuarantined(t *testing.T) {
	plan, err := faults.ParseReplicaPlan("seed=3;replay:replica=2,after=1")
	if err != nil {
		t.Fatal(err)
	}
	ri := plan.NewReplicaInjector()
	s := New(Config{Shards: 1, Replicas: 3, Quorum: 2, ReportHook: ri.OnReport})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(31), 400, -1, 1)
	feedFloats(t, a, xs, 50)
	// Report 0 is before the replay window: honest, read succeeds.
	if _, err := a.Certified(); err != nil {
		t.Fatal(err)
	}
	// Report 1 opens the window: the injector freezes replica 2's current
	// state but still answers honestly.
	if _, err := a.Certified(); err != nil {
		t.Fatal(err)
	}
	// New frames advance the quorum; replica 2 now replays its frozen
	// pre-tail state and must be caught.
	tail := rng.UniformSet(rng.New(32), 400, -1, 1)
	feedFloats(t, a, tail, 50)
	if _, err := a.Certified(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("stale replay not caught: %v", err)
	}
	// The reseed does not help: the injector keeps replaying the frozen
	// state, so the replica strikes out permanently...
	if _, err := a.Certified(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("second replay not caught: %v", err)
	}
	// ...and the surviving 2-of-3 quorum serves the right value.
	info, err := a.Certified()
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]float64(nil), xs...), tail...)
	if info.HP != oracleHPText(t, core.Params384, all) {
		t.Fatalf("post-replay value wrong: %s", info.HP)
	}
	a.mu.Lock()
	status := a.replicas[2].status
	a.mu.Unlock()
	if status != replicaQuarantined {
		t.Fatal("replaying replica not permanently quarantined")
	}
}

// With no quorum (every replica reporting something different) reads fail
// closed and nobody is quarantined — there is no majority to trust.
func TestNoQuorumFailsClosedWithoutQuarantine(t *testing.T) {
	src := rng.New(5)
	hook := func(replica int, env []byte) []byte {
		if replica == 0 {
			return env // one honest voice is not a quorum of 2
		}
		return faults.CorruptBytes(src, append([]byte(nil), env...))
	}
	s := New(Config{Shards: 1, Replicas: 3, Quorum: 2, ReportHook: hook})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	feedFloats(t, a, rng.UniformSet(rng.New(6), 100, -1, 1), 50)
	if _, err := a.Certified(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("no-quorum read did not fail closed: %v", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.replicas {
		if r.status != replicaActive || r.strikes != 0 {
			t.Fatalf("replica %d punished without a quorum to judge it (strikes=%d)", r.id, r.strikes)
		}
	}
}

// Satellite: 8 concurrent writers with interleaved certified reads under
// the race detector. Every certificate must be internally consistent (its
// digest covers the exact served envelope, with a full quorum of shares),
// and the final certified sum must be the exact oracle sum of everything
// written.
func TestConcurrentWritersWithCertifiedReads(t *testing.T) {
	const writers = 8
	s := New(Config{Shards: 2, Replicas: 3, Quorum: 2})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]float64, writers)
	for w := range parts {
		parts[w] = rng.UniformSet(rng.New(uint64(100+w)), 3000, -1, 1)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(xs []float64) {
			defer wg.Done()
			for off := 0; off < len(xs); off += 250 {
				end := min(off+250, len(xs))
				frame := append([]float64(nil), xs[off:end]...)
				if err := a.AddFloats(frame); err != nil {
					errs <- fmt.Errorf("writer: %w", err)
					return
				}
			}
		}(parts[w])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			info, err := a.Certified()
			if err != nil {
				errs <- fmt.Errorf("certified read %d: %w", i, err)
				return
			}
			if info.Cert == nil {
				errs <- fmt.Errorf("read %d: no certificate", i)
				return
			}
			if err := info.Cert.Verify(info.HP); err != nil {
				errs <- fmt.Errorf("read %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var all []float64
	for _, p := range parts {
		all = append(all, p...)
	}
	info, err := a.Certified()
	if err != nil {
		t.Fatal(err)
	}
	if info.HP != oracleHPText(t, core.Params384, all) {
		t.Fatalf("final certified sum diverges from oracle:\n server %s", info.HP)
	}
	if info.Adds != uint64(len(all)) {
		t.Fatalf("adds %d, want %d", info.Adds, len(all))
	}
}
