package mpi

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/trace"
)

// Tracing an AllreduceFT round — including a chaos round with drops,
// duplicates, corruption, and a crash-recovery — must not move a single
// bit of the result. The traced run is compared against the untraced
// golden, and the recorded spans must actually cover the round: a root
// allreduce span, per-attempt spans, cross-rank recv spans parented under
// the senders' wire contexts, and a recovery span for the crashed rank.
//
// Rank 3 crashes on its first outgoing frame — its contribution — so the
// leader can never take that contribution live and must recover it from
// the checkpoint. A later crash point (after=1) leaves a race: when the
// contribution frame survives the injector and the leader reaches rank 3
// before rank 3 sends its second frame (a retransmit once its 2 ms ack
// timer fires), the contribution is received live, the result is still
// bit-identical, and no recovery span exists.
func TestAllreduceFTBitIdenticalWithTracingOn(t *testing.T) {
	golden := chaosGolden(t)

	defer trace.SetEnabled(trace.SetEnabled(true))
	defer trace.SetSampling(trace.SetSampling(1))
	trace.Reset()
	defer trace.Reset()

	outs, werr := runChaosAllreduce(t,
		"seed=13;drop:p=0.1;delay:p=0.2,d=500us;dup:p=0.15;corrupt:p=0.1;crash:rank=3,after=0")
	if werr == nil || !faults.OnlyCrashes(werr) {
		t.Fatalf("world error: %v (want injected crashes only)", werr)
	}
	for r, out := range outs {
		if r == 3 {
			continue
		}
		if !bytes.Equal(out, golden) {
			t.Fatalf("rank %d traced sum differs from untraced golden:\n got %x\nwant %x", r, out, golden)
		}
	}
	assertNoLeakedGoroutines(t)

	spans := map[string]int{}
	roots := map[uint64]bool{} // trace ids of allreduce round roots
	for _, rec := range trace.Snapshot() {
		spans[rec.Name]++
		if rec.Name == "mpi.allreduce_ft" {
			roots[rec.TraceID] = true
		}
	}
	for _, name := range []string{"mpi.allreduce_ft", "mpi.ft_attempt", "mpi.send", "mpi.recv", "mpi.recover"} {
		if spans[name] == 0 {
			t.Errorf("no %s spans recorded during a traced chaos round (got %v)", name, spans)
		}
	}
	// Cross-rank stitching: recv spans on the receiving rank must belong to
	// traces rooted by some rank's allreduce round — the (trace, span)
	// context rode the wire header, retransmits included.
	stitched := 0
	for _, rec := range trace.Snapshot() {
		if rec.Name == "mpi.recv" && roots[rec.TraceID] {
			stitched++
		}
	}
	if stitched == 0 {
		t.Error("no mpi.recv span shares a trace with an allreduce round root: wire context did not stitch")
	}
}

// A stall-watchdog trip must leave a flight-recorder dump on disk naming
// the blocked (src, dst, tag) edges — the acceptance scenario for debugging
// a wedged distributed run after the fact.
func TestStallTripWritesFlightDumpNamingBlockedEdge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stall.json")
	prev := trace.SetDumpPath(path)
	defer trace.SetDumpPath(prev)

	err := RunWith(2, RunOpts{StallTimeout: 80 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.Recv(1, 9)
			return err
		}
		_, err := c.Recv(0, 8)
		return err
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want StallError", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("watchdog trip left no flight dump: %v", err)
	}
	d, err := trace.ValidateDump(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "stall-watchdog" {
		t.Fatalf("dump reason %q, want stall-watchdog", d.Reason)
	}
	// Both blocked edges (1->0 tag 9 and 0->1 tag 8) must be named as
	// stall-edge events with src/dst/tag attributes.
	edges := map[[3]int64]bool{}
	for _, ev := range d.Subsystems["mpi"] {
		if ev.Name != "stall-edge" {
			continue
		}
		var key [3]int64
		for _, a := range ev.Attrs {
			switch a.Key {
			case "src":
				key[0] = a.Int
			case "dst":
				key[1] = a.Int
			case "tag":
				key[2] = a.Int
			}
		}
		edges[key] = true
	}
	if !edges[[3]int64{1, 0, 9}] || !edges[[3]int64{0, 1, 8}] {
		t.Fatalf("dump does not name both blocked edges; got %v", edges)
	}
	assertNoLeakedGoroutines(t)
}

// An injected rank crash must leave a rank-crash flight event and (with a
// dump path armed) a crash trip dump.
func TestCrashTripWritesFlightDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.json")
	prev := trace.SetDumpPath(path)
	defer trace.SetDumpPath(prev)

	if _, werr := runChaosAllreduce(t, "seed=11;crash:rank=2,after=0"); werr == nil || !faults.OnlyCrashes(werr) {
		t.Fatalf("world error: %v (want injected crash)", werr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("crash left no flight dump: %v", err)
	}
	d, err := trace.ValidateDump(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "crash" {
		t.Fatalf("dump reason %q, want crash", d.Reason)
	}
	found := false
	for _, ev := range d.Subsystems["mpi"] {
		if ev.Name == "rank-crash" {
			for _, a := range ev.Attrs {
				if a.Key == "rank" && a.Int == 2 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("dump has no rank-crash event for rank 2")
	}
	assertNoLeakedGoroutines(t)
}
