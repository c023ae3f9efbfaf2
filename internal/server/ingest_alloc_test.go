package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// The bulk ingest path, measured in process through Handler(): requests of
// 64 frames of 4096 values, the shape the ingest-bulk workload streams.
const ingestReqFrames = 64

// bulkBody returns one pre-encoded ingest request body and its frame count.
func bulkBody() []byte {
	xs := rng.UniformSet(rng.New(5), ingestReqFrames*benchFrameValues, -1, 1)
	var body []byte
	for off := 0; off < len(xs); off += benchFrameValues {
		body = AppendFloatFrame(body, xs[off:off+benchFrameValues])
	}
	return body
}

// bulkServer returns a server holding one accumulator, "bulk".
func bulkServer(tb testing.TB) (*Server, *Accumulator) {
	s := New(Config{})
	a, _, err := s.Create("bulk", core.Params{})
	if err != nil {
		tb.Fatal(err)
	}
	return s, a
}

func postBulk(tb testing.TB, h http.Handler, body []byte) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/acc/bulk/add", bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		tb.Fatalf("ingest POST: HTTP %d: %s", rr.Code, rr.Body)
	}
}

// A data frame must cost the server a small, fixed amount of heap: the
// request's own bookkeeping, and its one reused frame buffer, spread over
// its frames — never a fresh buffer per frame (4096 values are 32 KiB). Each POST is followed by a certifying read, as a client's
// stream-then-read does.
func TestIngestSteadyStateHeapPerFrame(t *testing.T) {
	s, a := bulkServer(t)
	defer s.Close()
	h := s.Handler()
	body := bulkBody()
	post := func() {
		postBulk(t, h, body)
		if _, err := a.State(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		post()
	}
	const posts = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < posts; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / (posts * ingestReqFrames)
	t.Logf("heap per %d-value data frame: %.0f bytes", benchFrameValues, perFrame)
	if perFrame >= 4<<10 {
		t.Fatalf("heap per data frame %.0f bytes, want < 4 KiB", perFrame)
	}
	info, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64((16 + posts) * ingestReqFrames); info.Frames != want {
		t.Fatalf("frames %d, want %d", info.Frames, want)
	}
}

// BenchmarkIngestPOST is the server ingest layer: one 64-frame request
// through Handler() per op, decode, admission and fold included. A single
// request decodes and folds its frames in turn, on one goroutine.
func BenchmarkIngestPOST(b *testing.B) {
	s, a := bulkServer(b)
	defer s.Close()
	h := s.Handler()
	body := bulkBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBulk(b, h, body)
	}
	b.StopTimer()
	if _, err := a.State(); err != nil {
		b.Fatal(err)
	}
}

// An idle accumulator costs only its replicas' partial sums: no goroutine
// per accumulator, replica or shard, and bounded heap. 1000 accumulators
// at 2 shards × 3 replicas (6 SuperAccumulators each) must start no
// goroutine and hold at most 128 KiB of heap apiece after GC.
func TestIdleAccumulatorCost(t *testing.T) {
	const accs = 1000
	s := New(Config{Shards: 2, Replicas: 3})
	defer s.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	for i := 0; i < accs; i++ {
		if _, _, err := s.Create(fmt.Sprintf("idle-%d", i), core.Params{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d idle accumulators started %d goroutines", accs, n-goroutines)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perAcc := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / accs
	t.Logf("heap per idle accumulator: %.1f KiB", perAcc/1024)
	if perAcc > 128<<10 {
		t.Fatalf("heap per idle accumulator %.1f KiB, want <= 128 KiB", perAcc/1024)
	}
	if n := len(s.Names()); n != accs {
		t.Fatalf("%d accumulators registered, want %d", n, accs)
	}
}
