package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// streamWorkload pushes xs through clients concurrent streaming clients
// against a fresh test server and returns the accumulator's certificate.
func streamWorkload(t *testing.T, xs []float64, clients int) string {
	t.Helper()
	_, c := newTestServer(t, Config{Shards: 4})
	if _, err := c.Create("tr", core.Params{}); err != nil {
		t.Fatal(err)
	}
	parts := partitions(xs, clients, 7)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &Client{Base: c.Base, HTTP: c.HTTP, FrameLen: 256, RetryWait: time.Millisecond}
			_, errs[i] = cl.Stream("tr", parts[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	info, err := c.Get("tr")
	if err != nil {
		t.Fatal(err)
	}
	if info.Err != "" {
		t.Fatalf("sticky error %q", info.Err)
	}
	return info.HP
}

// The tracing layer's core promise: recording spans end to end — client
// send, trace-context wire frames, shard folds, merge — changes nothing
// about the sum. Certificates with tracing off and on must be identical to
// each other and to the serial oracle.
func TestSumsBitIdenticalWithTracingOnOrOff(t *testing.T) {
	xs := rng.UniformSet(rng.New(31), 30000, -0.5, 0.5)
	want := oracleText(t, core.Params384, xs)

	off := streamWorkload(t, xs, 6)

	defer trace.SetEnabled(trace.SetEnabled(true))
	defer trace.SetSampling(trace.SetSampling(1))
	trace.Reset()
	defer trace.Reset()
	on := streamWorkload(t, xs, 6)

	if off != want {
		t.Fatalf("tracing off diverged from oracle:\n server %s\n oracle %s", off, want)
	}
	if on != off {
		t.Fatalf("tracing changed the sum:\n   on %s\n  off %s", on, off)
	}

	// Prove the traced run actually recorded the pipeline end to end: a
	// shard fold parented under an ingest span that is itself parented
	// under a client send span — the context crossed the wire in 'T'
	// frames (client.send → server.ingest → server.fold).
	foldParents := map[uint64]bool{}
	ingestBySpan := map[uint64]uint64{} // span id -> parent span id
	sendSpans := map[uint64]bool{}
	for _, r := range trace.Snapshot() {
		switch r.Name {
		case "server.fold":
			if r.Parent != 0 {
				foldParents[r.Parent] = true
			}
		case "server.ingest":
			ingestBySpan[r.SpanID] = r.Parent
		case "client.send":
			sendSpans[r.SpanID] = true
		}
	}
	if len(foldParents) == 0 || len(ingestBySpan) == 0 || len(sendSpans) == 0 {
		t.Fatalf("traced run recorded %d fold parents, %d ingest spans, %d send spans; want all > 0",
			len(foldParents), len(ingestBySpan), len(sendSpans))
	}
	stitched := false
	for p := range foldParents {
		if sendSpans[ingestBySpan[p]] {
			stitched = true
			break
		}
	}
	if !stitched {
		t.Fatal("no server.fold → server.ingest → client.send chain: the wire trace context did not stitch")
	}
}

// scrapeServerMetrics GETs /metrics off the telemetry exporter and returns
// every integer-valued sample by name (counters and gauges).
func scrapeServerMetrics(t *testing.T) map[string]int64 {
	t.Helper()
	srv := httptest.NewServer(telemetry.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]int64)
	for _, m := range regexp.MustCompile(`(?m)^([a-z_]+) (-?\d+)$`).FindAllStringSubmatch(string(body), -1) {
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatalf("metric %s: %v", m[1], err)
		}
		vals[m[1]] = v
	}
	return vals
}

// Backpressure audit: frames refused with 429 must increment the rejection
// counter and must leave a backpressure-429 event in the server's
// flight-recorder ring.
func TestBackpressure429MetricsAudit(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	before := scrapeServerMetrics(t)

	// As in TestBackpressure429AndResume, the test holds the admission
	// replica's only shard, so the POST's first frame must bounce.
	s, c := newTestServer(t, Config{Shards: 1, EnqueueWait: time.Millisecond})
	if _, err := c.Create("bp", core.Params{}); err != nil {
		t.Fatal(err)
	}
	release := holdAdmissionShard(s.Lookup("bp"))
	var body []byte
	body = AppendFloatFrame(body, []float64{1})
	body = AppendFloatFrame(body, []float64{2, 3, 4})
	resp, err := c.http().Post(c.url("/v1/acc/bp/add"), "application/octet-stream", bytes.NewReader(body))
	release()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}

	after := scrapeServerMetrics(t)
	if got := after["server_rejected_adds_total"] - before["server_rejected_adds_total"]; got < 1 {
		t.Fatalf("server_rejected_adds_total moved by %d across a 429, want >= 1", got)
	}

	found := false
	for _, ev := range trace.Subsystem("server").Events() {
		if ev.Name != "backpressure-429" {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "acc" && a.Str == "bp" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no backpressure-429 flight event for accumulator bp")
	}
}

// The ingest path — what every accepted frame pays between the HTTP
// handler and the end of its shard fold — must not allocate when tracing is
// disabled. This pins the tentpole's "0 allocs/op added" guarantee on the
// server hot path; the matching fused-add guarantee lives in
// core.TestAccumulatorAddZeroAlloc.
func TestIngestEnqueueZeroAllocsWithTracingDisabled(t *testing.T) {
	if trace.Enabled() {
		t.Fatal("tracing unexpectedly enabled")
	}
	s := New(Config{Shards: 1})
	defer s.Close()
	a, _, err := s.Create("alloc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(3), 64, -0.5, 0.5)
	if avg := testing.AllocsPerRun(200, func() {
		if err := a.AddFloatsTraced(xs, trace.Context{}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("traced enqueue with tracing disabled allocates %.2f/op, want 0", avg)
	}
}
