package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// newTestServer starts an httptest server around a fresh Server and
// returns both plus a ready client. Cleanup tears the HTTP layer down
// before closing the server, matching the documented shutdown order.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client(), RetryWait: time.Millisecond}
}

func oracleText(t *testing.T, p core.Params, xs []float64) string {
	t.Helper()
	a := core.NewAccumulator(p)
	a.AddAll(xs)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	txt, err := a.Sum().MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	return string(txt)
}

func TestCreateGetDeleteList(t *testing.T) {
	_, c := newTestServer(t, Config{})

	info, err := c.Create("demo", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if info.N != core.Params384.N || info.K != core.Params384.K {
		t.Fatalf("default params (N=%d,k=%d)", info.N, info.K)
	}
	// Idempotent re-create with the same (defaulted) format.
	if _, err := c.Create("demo", core.Params384); err != nil {
		t.Fatal(err)
	}
	// Same name, different format: conflict.
	if _, err := c.Create("demo", core.Params128); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("conflicting create: %v", err)
	}
	if _, err := c.Create("other", core.Params128); err != nil {
		t.Fatal(err)
	}
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "demo" || names[1] != "other" {
		t.Fatalf("names %v", names)
	}
	if err := c.Delete("other"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("other"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := c.Get("other"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("get deleted: %v", err)
	}
}

func TestBadNamesRejected(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, name := range []string{"a b", "x%2Fy", strings.Repeat("q", 200)} {
		if _, err := c.Create(name, core.Params{}); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
}

func TestStreamAndReadMatchesOracle(t *testing.T) {
	_, c := newTestServer(t, Config{})
	xs := rng.UniformSet(rng.New(42), 20000, -0.5, 0.5)
	if _, err := c.Create("s", core.Params{}); err != nil {
		t.Fatal(err)
	}
	c.FrameLen = 512
	stats, err := c.Stream("s", xs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Values != len(xs) {
		t.Fatalf("acked %d values, want %d", stats.Values, len(xs))
	}
	info, err := c.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	if info.Adds != uint64(len(xs)) {
		t.Fatalf("adds %d, want %d", info.Adds, len(xs))
	}
	want := oracleText(t, core.Params384, xs)
	if info.HP != want {
		t.Fatalf("server sum %s\n  oracle %s", info.HP, want)
	}
	// The rounded JSON field must agree with the oracle rounding too.
	a := core.NewAccumulator(core.Params384)
	a.AddAll(xs)
	if math.Float64bits(info.Sum) != math.Float64bits(a.Float64()) {
		t.Fatalf("rounded %x, want %x", math.Float64bits(info.Sum), math.Float64bits(a.Float64()))
	}
}

func TestHPFrameHandoff(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if _, err := c.Create("h", core.Params{}); err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(7), 5000, -1, 1)
	// Pre-reduce half the workload elsewhere (an "MPI rank"), hand the
	// partial over as an HP frame, stream the rest as floats.
	half := len(xs) / 2
	partial, err := core.SumHP(core.Params384, xs[:half])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddHP("h", partial); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream("h", xs[half:]); err != nil {
		t.Fatal(err)
	}
	info, err := c.Get("h")
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleText(t, core.Params384, xs); info.HP != want {
		t.Fatalf("handoff sum %s\n   oracle %s", info.HP, want)
	}
	// Param-mismatched HP frames must be rejected before enqueue.
	wrong := core.New(core.Params128)
	if err := c.AddHP("h", wrong); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("mismatched HP frame: %v", err)
	}
}

func TestOneShotSum(t *testing.T) {
	_, c := newTestServer(t, Config{})
	xs := rng.UniformSet(rng.New(3), 10000, -2, 2)
	info, err := c.Sum(xs, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleText(t, core.Params384, xs); info.HP != want {
		t.Fatalf("one-shot %s, want %s", info.HP, want)
	}
	info128, err := c.Sum([]float64{1.5, 2.5}, core.Params128)
	if err != nil {
		t.Fatal(err)
	}
	if info128.N != 2 || info128.Sum != 4 {
		t.Fatalf("n=%d sum=%v", info128.N, info128.Sum)
	}
}

func TestCorruptFramesRejected(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if _, err := c.Create("x", core.Params{}); err != nil {
		t.Fatal(err)
	}
	good := AppendFloatFrame(nil, []float64{1, 2})
	bad := append([]byte(nil), good...)
	bad[len(bad)-2] ^= 0x10 // CRC byte

	// One good frame then a corrupt one: 400, with the good frame counted.
	resp, err := c.http().Post(c.url("/v1/acc/x/add"), "application/octet-stream",
		bytes.NewReader(append(append([]byte(nil), good...), bad...)))
	if err != nil {
		t.Fatal(err)
	}
	var res AddResult
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if err := decodeJSON(resp, &res); err != nil {
		t.Fatal(err)
	}
	if res.FramesAccepted != 1 || res.ValuesAccepted != 2 {
		t.Fatalf("accepted %d frames / %d values, want 1 / 2", res.FramesAccepted, res.ValuesAccepted)
	}
	if res.Error == "" {
		t.Fatal("no error text")
	}
	// Non-finite values are rejected at admission, not stuck into the sum.
	nanFrame := AppendFloatFrame(nil, []float64{math.NaN()})
	resp, err = c.http().Post(c.url("/v1/acc/x/add"), "application/octet-stream", bytes.NewReader(nanFrame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN frame: status %d, want 400", resp.StatusCode)
	}
	// The accumulator still works and holds exactly the accepted frame.
	info, err := c.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if info.Err != "" {
		t.Fatalf("sticky error leaked into accumulator: %q", info.Err)
	}
	if info.Sum != 3 {
		t.Fatalf("sum %v, want 3", info.Sum)
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	_, c := newTestServer(t, Config{MaxFramePayload: 64})
	if _, err := c.Create("x", core.Params{}); err != nil {
		t.Fatal(err)
	}
	frame := AppendFloatFrame(nil, make([]float64, 9)) // 72 > 64 payload bytes
	resp, err := c.http().Post(c.url("/v1/acc/x/add"), "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestRequestBodyCapRejected: a body cut off by MaxRequestBytes in the
// middle of a frame is classified as oversize (413), not as a truncated
// frame (400): the frame decoder keeps the read error in its chain.
func TestRequestBodyCapRejected(t *testing.T) {
	_, c := newTestServer(t, Config{MaxRequestBytes: 100})
	if _, err := c.Create("x", core.Params{}); err != nil {
		t.Fatal(err)
	}
	frame := AppendFloatFrame(nil, make([]float64, 20)) // 169 bytes > 100
	for _, path := range []string{"/v1/acc/x/add", "/v1/sum"} {
		resp, err := c.http().Post(c.url(path), "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
}

// holdAdmissionShard takes the only idle shard of a's admission replica
// (a must run with Shards: 1), so every ingest into a is refused with 429
// once EnqueueWait passes, until the returned func hands the shard back.
// The release is idempotent.
func holdAdmissionShard(a *Accumulator) (release func()) {
	eng := a.replicas[0].eng
	sh := <-eng.free
	var once sync.Once
	return func() { once.Do(func() { eng.free <- sh }) }
}

func TestBackpressure429AndResume(t *testing.T) {
	// One shard and a negligible enqueue wait: while the test holds the
	// admission replica's only shard, the first frame of a POST must be
	// refused with 429 + Retry-After and nothing accepted.
	s := New(Config{Shards: 1, EnqueueWait: time.Millisecond})
	mux := s.Handler()
	var busy atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(statusSpy{w, &busy}, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := &Client{Base: ts.URL, HTTP: ts.Client(), RetryWait: time.Millisecond}
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
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var res AddResult
	if err := decodeJSON(resp, &res); err != nil {
		t.Fatal(err)
	}
	if res.FramesAccepted != 0 {
		t.Fatalf("frames_accepted %d, want 0", res.FramesAccepted)
	}

	// The client's retry loop must push a full workload through once the
	// shard comes back: hold it until the stream's first 429, then release
	// it. The result must still be exact.
	xs := rng.UniformSet(rng.New(9), 5000, -1, 1)
	if _, err := c.Create("resume", core.Params{}); err != nil {
		t.Fatal(err)
	}
	c.FrameLen = 64
	c.ReqFrames = 8
	release = holdAdmissionShard(s.Lookup("resume"))
	defer release()
	seen := busy.Load()
	var stats StreamStats
	done := make(chan error, 1)
	go func() {
		var err error
		stats, err = c.Stream("resume", xs)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); busy.Load() == seen; {
		if time.Now().After(deadline) {
			t.Fatal("no 429 while the admission shard was held")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stats.Values != len(xs) || stats.Retries == 0 {
		t.Fatalf("stream stats %+v, want %d values and some retries", stats, len(xs))
	}
	info, err := c.Get("resume")
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleText(t, s.Config().Params, xs); info.HP != want {
		t.Fatalf("resume sum %s\n  oracle %s", info.HP, want)
	}
}

func TestRangeErrorIsSticky(t *testing.T) {
	// Underflow (a value with bits below 2^-64k) is a per-accumulator
	// sticky error, reported in the read Info, exactly like Accumulator.
	_, c := newTestServer(t, Config{Params: core.Params128})
	if _, err := c.Create("u", core.Params{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream("u", []float64{1, 1e-30}); err != nil {
		t.Fatal(err)
	}
	info, err := c.Get("u")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Err, "underflow") {
		t.Fatalf("error %q, want underflow", info.Err)
	}
	if info.Sum != 1 {
		t.Fatalf("sum %v, want 1 (offending value skipped)", info.Sum)
	}
}

func TestAddToMissingAccumulator(t *testing.T) {
	_, c := newTestServer(t, Config{})
	frame := AppendFloatFrame(nil, []float64{1})
	resp, err := c.http().Post(c.url("/v1/acc/nope/add"), "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestListJSONShape(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if _, err := c.Create("a1", core.Params{}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.http().Get(c.url("/v1/acc"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out["accumulators"]; !ok {
		t.Fatalf("list body %v", out)
	}
}

// TestFormatBoundedByRecord: every accepted format's state must fit one
// audit record entry, so an accumulator can always be snapshotted and
// attested. N=8191 is the widest (5+8·8191 envelope bytes ≤ 65536); N=8192
// is refused by Create, PUT and the one-shot sum alike.
func TestFormatBoundedByRecord(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{Shards: 1})
	if err := s.EnableAudit(filepath.Join(dir, "f.hpfj"), filepath.Join(dir, "a.hpal")); err != nil {
		t.Fatal(err)
	}
	defer s.CloseAudit()
	if _, _, err := s.Create("over", core.Params{N: 8192, K: 0}); err == nil {
		t.Fatal("N=8192 created")
	}
	if _, err := c.Create("wide", core.Params{N: 8191, K: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AuditRecord("periodic"); err != nil {
		t.Fatalf("widest format not attestable: %v", err)
	}
	if err := s.Snapshot(filepath.Join(dir, "state")); err != nil {
		t.Fatalf("widest format not snapshottable: %v", err)
	}
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPut, "/v1/acc/big", `{"n":8192,"k":0}`},
		{http.MethodPost, "/v1/sum?n=8192&k=0", ""},
		{http.MethodPost, "/v1/sum?n=2305843009213693952&k=0", ""},
	} {
		req, err := http.NewRequest(tc.method, c.url(tc.path), strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestStalledBodyTimesOut: both ingest endpoints arm the per-frame read
// deadline, so a client that stalls mid-frame gets 408 instead of holding
// the handler forever.
func TestStalledBodyTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, c := newTestServer(t, Config{FrameReadTimeout: timeout})
	if _, err := c.Create("x", core.Params{}); err != nil {
		t.Fatal(err)
	}
	frame := AppendFloatFrame(nil, []float64{1, 2, 3})
	for _, path := range []string{"/v1/acc/x/add", "/v1/sum"} {
		pr, pw := io.Pipe()
		t.Cleanup(func() { pw.Close() }) // runs before the server's cleanup
		go pw.Write(frame[:7])           // a header and part of the payload, then silence
		start := time.Now()
		got := make(chan int, 1)
		go func() {
			resp, err := c.http().Post(c.url(path), "application/octet-stream", pr)
			if err != nil {
				got <- 0
				return
			}
			resp.Body.Close()
			got <- resp.StatusCode
		}()
		select {
		case code := <-got:
			if code != http.StatusRequestTimeout {
				t.Fatalf("%s: status %d, want 408", path, code)
			}
			if el := time.Since(start); el > timeout+2*time.Second {
				t.Fatalf("%s: 408 after %s, deadline is %s", path, el, timeout)
			}
		case <-time.After(timeout + 5*time.Second):
			t.Fatalf("%s: stalled body still held the handler after %s", path, timeout+5*time.Second)
		}
	}
}
