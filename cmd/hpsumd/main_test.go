package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/server"
)

// daemon is one running hpsumd entrypoint: done yields run's final error,
// and closing stop shuts this daemon (and only this one) down.
type daemon struct {
	done chan error
	stop chan struct{}
}

// startDaemon runs the real hpsumd entrypoint on an ephemeral port and
// returns its base URL plus its handle.
func startDaemon(t *testing.T, extra ...string) (string, *daemon) {
	t.Helper()
	ready := make(chan string, 1)
	d := &daemon{done: make(chan error, 1), stop: make(chan struct{})}
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { d.done <- run(args, ready, d.stop) }()
	select {
	case addr := <-ready:
		return "http://" + addr, d
	case err := <-d.done:
		t.Fatalf("daemon exited before ready: %v", err)
		return "", nil
	}
}

// stopDaemon shuts d down through its stop channel and waits for a clean
// exit.
func stopDaemon(t *testing.T, d *daemon) {
	t.Helper()
	close(d.stop)
	waitDaemon(t, d)
}

func waitDaemon(t *testing.T, d *daemon) {
	t.Helper()
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestSignalStopsDaemon: the deployed binary still shuts down gracefully on
// SIGTERM. The signal reaches the whole test process, so this test must not
// run while another daemon is up (no test in this package is parallel).
func TestSignalStopsDaemon(t *testing.T) {
	_, d := startDaemon(t)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDaemon(t, d)
}

// TestServeSnapshotRestore is the full lifecycle the ISSUE acceptance
// demands: serve, stream, SIGTERM with -snapshot, then a second daemon with
// -restore must report the byte-identical certificate and continue the
// exact trajectory.
func TestServeSnapshotRestore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.hpss")
	xs := rng.UniformSet(rng.New(11), 30000, -0.5, 0.5)

	url, done := startDaemon(t, "-snapshot", snap, "-shards", "2")
	c := &server.Client{Base: url, FrameLen: 1024}
	if _, err := c.Create("acc", core.Params{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream("acc", xs); err != nil {
		t.Fatal(err)
	}
	before, err := c.Get("acc")
	if err != nil {
		t.Fatal(err)
	}
	// Telemetry must ride the same listener as the service API.
	if names, err := c.List(); err != nil || len(names) != 1 {
		t.Fatalf("list: %v %v", names, err)
	}
	stopDaemon(t, done)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	url2, done2 := startDaemon(t, "-restore", snap)
	c2 := &server.Client{Base: url2}
	after, err := c2.Get("acc")
	if err != nil {
		t.Fatal(err)
	}
	if after.HP != before.HP {
		t.Fatalf("restore lost bits:\n before %s\n  after %s", before.HP, after.HP)
	}
	if after.Adds != uint64(len(xs)) {
		t.Fatalf("adds %d, want %d", after.Adds, len(xs))
	}
	// Continue the trajectory: tail adds after restart agree with a single
	// serial pass over the full workload.
	tail := rng.UniformSet(rng.New(12), 5000, -0.5, 0.5)
	if _, err := c2.Stream("acc", tail); err != nil {
		t.Fatal(err)
	}
	final, err := c2.Get("acc")
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewAccumulator(core.Params384)
	oracle.AddAll(xs)
	oracle.AddAll(tail)
	txt, err := oracle.Sum().MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if final.HP != string(txt) {
		t.Fatalf("post-restart trajectory diverged:\n server %s\n oracle %s", final.HP, txt)
	}
	stopDaemon(t, done2)
}

func TestTelemetrySharesListener(t *testing.T) {
	url, done := startDaemon(t)
	c := &server.Client{Base: url}
	if _, err := c.Create("m", core.Params{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream("m", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := httpGet(url + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp != 200 {
			t.Fatalf("GET %s: HTTP %d", path, resp)
		}
	}
	stopDaemon(t, done)
}

func httpGet(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-n", "2", "-k", "5"}, nil, nil); err == nil {
		t.Fatal("invalid HP params accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-restore", "/no/such/snapshot"}, nil, nil); err == nil {
		t.Fatal("missing restore file accepted")
	}
}

// TestReplicatedAuditedLifecycle drives the full Byzantine-auditable
// deployment: a replicated daemon with audit files, certified reads, a
// SIGTERM that chains a shutdown record, a restart that restores and keeps
// extending the same chain, and a final offline replay proving the totals.
func TestReplicatedAuditedLifecycle(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "state.hpss")
	jpath := filepath.Join(dir, "frames.hpfj")
	lpath := filepath.Join(dir, "audit.hpal")
	auditFlags := []string{"-replicas", "3", "-journal", jpath, "-audit-log", lpath, "-snapshot", snap}

	xs := rng.UniformSet(rng.New(13), 20000, -0.5, 0.5)
	url, done := startDaemon(t, append(auditFlags, "-shards", "2")...)
	c := &server.Client{Base: url, FrameLen: 1024}
	if _, err := c.Create("acc", core.Params{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream("acc", xs); err != nil {
		t.Fatal(err)
	}
	info, err := c.Get("acc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Cert == nil || info.Cert.K != 2 || info.Cert.N != 3 {
		t.Fatalf("read not certified 2-of-3: %+v", info.Cert)
	}
	if err := info.Cert.Verify(info.HP); err != nil {
		t.Fatal(err)
	}
	stopDaemon(t, done)

	tail := rng.UniformSet(rng.New(14), 5000, -0.5, 0.5)
	url2, done2 := startDaemon(t, append(auditFlags, "-restore", snap)...)
	c2 := &server.Client{Base: url2, FrameLen: 1024}
	if _, err := c2.Stream("acc", tail); err != nil {
		t.Fatal(err)
	}
	stopDaemon(t, done2)

	// Offline replay over both daemon lifetimes.
	logData, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := audit.ReadLog(logData)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("%d audit records, want 2 (one per SIGTERM)", len(records))
	}
	jf, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	res, err := audit.Verify(records, audit.NewJournalReader(jf))
	if err != nil {
		t.Fatalf("audit replay across restart failed: %v", err)
	}
	fe := res.Final["acc"]
	var fh core.HP
	if err := fh.UnmarshalBinary(fe.Env); err != nil {
		t.Fatal(err)
	}
	txt, err := fh.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewAccumulator(core.Params384)
	oracle.AddAll(xs)
	oracle.AddAll(tail)
	want, err := oracle.Sum().MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if string(txt) != string(want) {
		t.Fatalf("attested total diverges from oracle:\n attested %s\n oracle   %s", txt, want)
	}
	if fe.Adds != uint64(len(xs)+len(tail)) {
		t.Fatalf("attested adds %d, want %d", fe.Adds, len(xs)+len(tail))
	}

	// The second shutdown's snapshot is a one-record chain: the same
	// replay proves its totals against the same journal.
	snapData, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	snapRecords, err := audit.ReadLog(snapData)
	if err != nil {
		t.Fatalf("snapshot is not an audit chain: %v", err)
	}
	if _, err := jf.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	sres, err := audit.Verify(snapRecords, audit.NewJournalReader(jf))
	if err != nil {
		t.Fatalf("snapshot replay failed: %v", err)
	}
	se := sres.Final["acc"]
	var sh core.HP
	if err := sh.UnmarshalBinary(se.Env); err != nil {
		t.Fatal(err)
	}
	if !sh.Equal(oracle.Sum()) || se.Adds != uint64(len(xs)+len(tail)) {
		t.Fatalf("snapshot attests adds=%d, want the oracle total over %d adds", se.Adds, len(xs)+len(tail))
	}
}

// TestGossipCluster: two clustered daemons, each ingesting its own slice of
// the workload into the same named accumulator, must converge to one
// bit-identical cluster total served from /gossip/sum on both nodes.
func TestGossipCluster(t *testing.T) {
	xs := rng.UniformSet(rng.New(23), 4000, -1, 1)
	half := len(xs) / 2

	urlA, doneA := startDaemon(t, "-node-id", "alpha", "-gossip-interval", "20ms")
	urlB, doneB := startDaemon(t, "-node-id", "beta", "-gossip-interval", "20ms",
		"-peers", urlA)

	for i, part := range [][]float64{xs[:half], xs[half:]} {
		c := &server.Client{Base: []string{urlA, urlB}[i]}
		if _, err := c.Create("t", core.Params{}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stream("t", part); err != nil {
			t.Fatal(err)
		}
	}

	oracle := core.NewAccumulator(core.Params384)
	oracle.AddAll(xs)
	txt, err := oracle.Sum().MarshalText()
	if err != nil {
		t.Fatal(err)
	}

	read := func(base string) (gossip.ClusterInfo, error) {
		var info gossip.ClusterInfo
		resp, err := http.Get(base + "/gossip/sum/t")
		if err != nil {
			return info, err
		}
		defer resp.Body.Close()
		return info, json.NewDecoder(resp.Body).Decode(&info)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		a, errA := read(urlA)
		b, errB := read(urlB)
		if errA == nil && errB == nil &&
			a.Adds == uint64(len(xs)) && a.Digest == b.Digest && a.HP == string(txt) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged:\n a=%+v (%v)\n b=%+v (%v)\n oracle %s",
				a, errA, b, errB, txt)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Membership is mutual even though only beta was seeded.
	resp, err := http.Get(urlA + "/gossip/peers")
	if err != nil {
		t.Fatal(err)
	}
	var peersReplyA struct {
		Peers []gossip.Peer `json:"peers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&peersReplyA)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range peersReplyA.Peers {
		if p.ID == "beta" {
			found = true
		}
	}
	if !found {
		t.Fatalf("alpha never learned beta: %+v", peersReplyA.Peers)
	}

	// Each daemon must shut down cleanly.
	stopDaemon(t, doneA)
	stopDaemon(t, doneB)
}
