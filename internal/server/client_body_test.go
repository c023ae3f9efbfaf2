package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/wire"
)

// readSized drains r through Read calls of at most size bytes.
func readSized(t *testing.T, r io.Reader, size int) []byte {
	t.Helper()
	var out []byte
	p := make([]byte, size)
	for {
		n, err := r.Read(p)
		out = append(out, p[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The streaming body must yield exactly the bytes of the frames encoded
// back to back — led by the trace frame when there is one — whatever the
// transport's read sizes, and ContentLength must be that byte count.
func TestFrameBodyStreamsEncodedFrames(t *testing.T) {
	xs := rng.UniformSet(rng.New(61), 1000, -1, 1)
	frames := [][]float64{xs[:300], xs[300:300], xs[300:999], xs[999:]}
	for _, tctx := range []trace.Context{{}, {TraceID: 0x0102030405060708, SpanID: 0x1112131415161718}} {
		want := AppendTraceFrame(nil, tctx)
		for _, f := range frames {
			want = AppendFloatFrame(want, f)
		}
		for _, size := range []int{1, 7, 4093, 1 << 16} {
			req, body, err := newFramePost("http://127.0.0.1/v1/sum", nil, tctx, frames)
			if err != nil {
				t.Fatal(err)
			}
			got := readSized(t, req.Body, size)
			if !bytes.Equal(got, want) {
				t.Fatalf("trace=%v read size %d: body differs from the encoded frames", tctx.Valid(), size)
			}
			if req.ContentLength != int64(len(got)) {
				t.Fatalf("trace=%v read size %d: ContentLength %d, read %d bytes", tctx.Valid(), size, req.ContentLength, len(got))
			}
			body.fence()
			if n, err := req.Body.Read(make([]byte, 16)); n != 0 || err != io.EOF {
				t.Fatalf("read after fence: %d bytes, %v", n, err)
			}
		}
	}
}

// A fenced body ends at once, even mid-frame, and never reads the frames
// again.
func TestFrameBodyFenceStopsReads(t *testing.T) {
	xs := rng.UniformSet(rng.New(63), 4096, -1, 1)
	_, body, err := newFramePost("http://127.0.0.1/v1/sum", nil, trace.Context{}, [][]float64{xs[:2048], xs[2048:]})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := body.Read(make([]byte, 100)); n != 100 || err != nil {
		t.Fatalf("first read: %d bytes, %v", n, err)
	}
	body.fence()
	if n, err := body.Read(make([]byte, 100)); n != 0 || err != io.EOF {
		t.Fatalf("read after fence: %d bytes, %v", n, err)
	}
}

// A server that answers 429 after reading one frame leaves the transport
// still writing the rest of a 2 MiB body. Stream must not return while any
// read of the caller's slice is in flight: the test overwrites xs the
// moment Stream returns, which the race detector flags otherwise.
func TestStreamEarly429LeavesNoBodyReadBehind(t *testing.T) {
	const flen = 4096
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		if _, err := io.ReadFull(r.Body, make([]byte, wire.Overhead+8*flen)); err != nil {
			t.Errorf("reading the first frame: %v", err)
		}
		writeJSON(w, http.StatusTooManyRequests, AddResult{Error: "busy"})
	}))
	defer ts.Close()

	xs := rng.UniformSet(rng.New(62), 64*flen, -1, 1)
	c := &Client{Base: ts.URL, HTTP: ts.Client(), FrameLen: flen, RetryWait: time.Millisecond, MaxRetries: 2}
	stats, err := c.Stream("acc", xs)
	for i := range xs {
		xs[i] = 0
	}
	if err == nil || !strings.Contains(err.Error(), "still busy") {
		t.Fatalf("stream against a server that only answers 429: %v", err)
	}
	if stats.Frames != 0 || stats.Retries != 3 {
		t.Fatalf("stats %+v, want 0 frames and 3 retries", stats)
	}
	if got := posts.Load(); got != 3 {
		t.Fatalf("%d POSTs, want 3", got)
	}
}
