package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Client is a minimal hpsumd client speaking the binary ingest protocol,
// shared by cmd/hpload, cmd/benchsum's server-loopback workload, and the
// test suites. It handles 429 backpressure by honoring Retry-After and
// resending exactly the unaccepted frame suffix, which is safe because
// frames are admitted whole and addition is commutative.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// FrameLen is values per ingest frame (default 4096).
	FrameLen int
	// ReqFrames is the number of frames batched into one POST (default 64).
	ReqFrames int
	// RetryWait overrides the server's Retry-After hint between 429 retries
	// (0 honors the hint; useful to shorten in tests).
	RetryWait time.Duration
	// MaxRetries bounds consecutive 429 rounds for one request before
	// giving up (default 100).
	MaxRetries int
	// MaxTransportRetries bounds retries of one request body after a
	// transport failure (connection reset, EOF mid-POST). Each retry
	// resends the identical body under the same Ingest-Id, so frames the
	// server accepted before the connection died are skipped server-side
	// rather than double-counted. Default 4.
	MaxTransportRetries int
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) frameLen() int {
	if c.FrameLen > 0 {
		return c.FrameLen
	}
	return 4096
}

func (c *Client) reqFrames() int {
	if c.ReqFrames > 0 {
		return c.ReqFrames
	}
	return 64
}

func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 100
}

func (c *Client) maxTransportRetries() int {
	if c.MaxTransportRetries > 0 {
		return c.MaxTransportRetries
	}
	return 4
}

// newIngestID mints a fresh idempotency key for one POST body.
func newIngestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not worth failing an upload over; an empty
		// id just disables skip-ahead resume for this body.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// isTransientTransport reports whether err is a connection-level failure
// worth retrying with the same body: the server (or the network) severed
// the connection without delivering a response, so the request may or may
// not have been partially processed — exactly the case Ingest-Id resume
// makes safe to retry.
func isTransientTransport(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return true
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	return false
}

// transportBackoff is a jittered exponential backoff: attempt 1 waits
// ~10ms, doubling per attempt, capped at 1s, with the wait drawn uniformly
// from the upper half of the window so simultaneous retriers spread out.
func transportBackoff(attempt int) time.Duration {
	d := 10 * time.Millisecond << min(attempt, 7)
	if d > time.Second {
		d = time.Second
	}
	jitter := time.Duration(time.Now().UnixNano()) % (d / 2)
	return d/2 + jitter
}

// decodeJSON reads resp's body into v (ignoring decode errors on error
// statuses where the body may be absent).
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v)
}

func (c *Client) url(format string, args ...any) string {
	return c.Base + fmt.Sprintf(format, args...)
}

// Create registers name with format p (zero Params: server default).
func (c *Client) Create(name string, p core.Params) (Info, error) {
	var body io.Reader
	if p != (core.Params{}) {
		b, err := json.Marshal(createRequest{N: p.N, K: p.K})
		if err != nil {
			return Info{}, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPut, c.url("/v1/acc/%s", name), body)
	if err != nil {
		return Info{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return Info{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return Info{}, respError("create", resp)
	}
	var info Info
	if err := decodeJSON(resp, &info); err != nil {
		return Info{}, err
	}
	return info, nil
}

// Delete removes name.
func (c *Client) Delete(name string) error {
	req, err := http.NewRequest(http.MethodDelete, c.url("/v1/acc/%s", name), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return respError("delete", resp)
	}
	return nil
}

// Get flushes and reads the accumulator: the rounded sum, the canonical HP
// certificate, and the adds/frames counters.
func (c *Client) Get(name string) (Info, error) {
	span := trace.StartRoot("client.read")
	span.Attr(trace.Str("acc", name))
	defer span.End()
	resp, err := c.http().Get(c.url("/v1/acc/%s", name))
	if err != nil {
		return Info{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Info{}, respError("get", resp)
	}
	var info Info
	if err := decodeJSON(resp, &info); err != nil {
		return Info{}, err
	}
	return info, nil
}

// List returns the registered accumulator names.
func (c *Client) List() ([]string, error) {
	resp, err := c.http().Get(c.url("/v1/acc"))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, respError("list", resp)
	}
	var out struct {
		Accumulators []listEntry `json:"accumulators"`
	}
	if err := decodeJSON(resp, &out); err != nil {
		return nil, err
	}
	names := make([]string, len(out.Accumulators))
	for i, e := range out.Accumulators {
		names[i] = e.Name
	}
	return names, nil
}

// StreamStats summarizes one Stream call.
type StreamStats struct {
	Frames  int // frames accepted by the server
	Values  int // float64 values accepted
	Retries int // 429 rounds absorbed
}

// Stream sends every value of xs to name as framed batches, batching
// frames into POSTs and transparently retrying the unaccepted suffix on
// backpressure. It returns once the server has acked every frame.
func (c *Client) Stream(name string, xs []float64) (StreamStats, error) {
	span := trace.StartRoot("client.stream")
	span.Attr(trace.Str("acc", name))
	span.Attr(trace.Int("values", int64(len(xs))))
	defer span.End()
	return c.streamFrames(name, c.partition(xs), span.Context())
}

// partition cuts xs into FrameLen-value frames that alias it.
func (c *Client) partition(xs []float64) [][]float64 {
	flen := c.frameLen()
	frames := make([][]float64, 0, len(xs)/flen+1)
	for len(xs) > 0 {
		n := min(flen, len(xs))
		frames = append(frames, xs[:n])
		xs = xs[n:]
	}
	return frames
}

// streamFrames sends pre-partitioned frames.
func (c *Client) streamFrames(name string, frames [][]float64, parent trace.Context) (StreamStats, error) {
	var stats StreamStats
	per := c.reqFrames()
	for len(frames) > 0 {
		batch := frames[:min(per, len(frames))]
		acked, retries, err := c.postFrames(name, batch, parent)
		stats.Frames += acked
		stats.Retries += retries
		for _, f := range batch[:acked] {
			stats.Values += len(f)
		}
		if err != nil {
			return stats, err
		}
		frames = frames[acked:]
	}
	return stats, nil
}

// postFrames POSTs one batch of frames, absorbing 429 rounds by resending
// the unaccepted suffix and transport failures by resending the identical
// body under the same Ingest-Id (the server skips the already-owned prefix,
// so a connection severed after acceptance but before the response cannot
// double-count a frame). It returns how many of the batch's frames were
// acked in total. When parent is a valid trace context, each POST attempt
// is a client.send span whose context rides ahead of the data frames as a
// FrameTrace, so the server's ingest span (and the shard folds under it)
// parent back to this exact attempt.
func (c *Client) postFrames(name string, frames [][]float64, parent trace.Context) (acked, retries int, err error) {
	var scratch []byte // one frame's encode buffer, handed from body to body
	base := -1         // acked count the current body was built at; -1 forces a new id
	id := ""
	transportTries := 0
	for retry := 0; ; retry++ {
		if acked >= len(frames) {
			return acked, retries, nil
		}
		sendSpan := trace.Start(parent, "client.send")
		sendSpan.Attr(trace.Int("frames", int64(len(frames)-acked)))
		if acked != base {
			// The suffix changed (429 partial accept, or first attempt):
			// a new body needs a fresh idempotency key. An unchanged body
			// (transport retry) keeps its id and re-encodes the same
			// frames, byte for byte.
			base = acked
			id = newIngestID()
			transportTries = 0
		}
		// The trace frame carries this attempt's span, so it cannot be part
		// of the retry-stable frames; it leads each attempt's body. Trace
		// frames are metadata and never counted by the server.
		req, body, rerr := newFramePost(c.url("/v1/acc/%s/add", name), scratch, sendSpan.Context(), frames[base:])
		if rerr != nil {
			sendSpan.End()
			return acked, retries, rerr
		}
		if id != "" {
			req.Header.Set("Ingest-Id", id)
		}
		resp, err := c.http().Do(withConnectTrace(req, parent))
		if err != nil {
			scratch = body.fence()
			sendSpan.Attr(trace.Str("transport_error", err.Error()))
			sendSpan.End()
			if isTransientTransport(err) && transportTries < c.maxTransportRetries() {
				transportTries++
				retries++
				wait := transportBackoff(transportTries)
				resumeSpan := trace.Start(parent, "client.resume")
				resumeSpan.Attr(trace.Str("kind", "transport"))
				resumeSpan.Attr(trace.Int("retry", int64(transportTries)))
				resumeSpan.Attr(trace.Int("wait_ms", wait.Milliseconds()))
				time.Sleep(wait)
				resumeSpan.End()
				continue
			}
			return acked, retries, err
		}
		var res AddResult
		status := resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		derr := decodeJSON(resp, &res)
		scratch = body.fence()
		sendSpan.Attr(trace.Int("status", int64(status)))
		sendSpan.End()
		if derr != nil && status == http.StatusOK {
			return acked, retries, derr
		}
		// frames_accepted is the id's owned prefix of the current body
		// (skipped frames from a severed earlier attempt included), so the
		// batch total is the body's base plus the server's count.
		acked = base + res.FramesAccepted
		switch status {
		case http.StatusOK:
			return acked, retries, nil
		case http.StatusTooManyRequests:
			retries++
			if retry >= c.maxRetries() {
				return acked, retries, fmt.Errorf("server: still busy after %d retries", retries)
			}
			wait := c.RetryWait
			if wait <= 0 {
				wait = time.Second
				if s, err := strconv.Atoi(retryAfter); err == nil && s >= 0 {
					wait = time.Duration(s) * time.Second
				}
			}
			resumeSpan := trace.Start(parent, "client.resume")
			resumeSpan.Attr(trace.Int("retry", int64(retries)))
			resumeSpan.Attr(trace.Int("wait_ms", wait.Milliseconds()))
			time.Sleep(wait)
			resumeSpan.End()
		default:
			return acked, retries, fmt.Errorf("server: add: HTTP %d: %s", status, res.Error)
		}
	}
}

// withConnectTrace arms an httptrace hook that brackets any fresh TCP dial
// for req in a client.connect span (pooled-connection reuse dials nothing
// and records nothing). Both callbacks run on the transport's dial
// goroutine, so the span value never crosses goroutines mid-flight.
func withConnectTrace(req *http.Request, parent trace.Context) *http.Request {
	if !parent.Valid() {
		return req
	}
	var connSpan trace.Span
	ct := &httptrace.ClientTrace{
		ConnectStart: func(network, addr string) {
			connSpan = trace.Start(parent, "client.connect")
			connSpan.Attr(trace.Str("addr", addr))
		},
		ConnectDone: func(network, addr string, err error) {
			connSpan.End()
		},
	}
	return req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
}

// AddHP hands off one exact HP partial sum.
func (c *Client) AddHP(name string, h *core.HP) error {
	buf, err := AppendHPFrame(nil, h)
	if err != nil {
		return err
	}
	resp, err := c.http().Post(c.url("/v1/acc/%s/add", name),
		"application/octet-stream", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	var res AddResult
	if resp.StatusCode != http.StatusOK {
		return respError("addhp", resp)
	}
	return decodeJSON(resp, &res)
}

// Sum drives the one-shot endpoint: frames in, Info out.
func (c *Client) Sum(xs []float64, p core.Params) (Info, error) {
	u := c.url("/v1/sum")
	if p != (core.Params{}) {
		u += fmt.Sprintf("?n=%d&k=%d", p.N, p.K)
	}
	req, body, err := newFramePost(u, nil, trace.Context{}, c.partition(xs))
	if err != nil {
		return Info{}, err
	}
	defer body.fence()
	resp, err := c.http().Do(req)
	if err != nil {
		return Info{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Info{}, respError("sum", resp)
	}
	var info Info
	if err := decodeJSON(resp, &info); err != nil {
		return Info{}, err
	}
	return info, nil
}

// frameBody is a POST body of float frames, led by an optional trace frame,
// that is encoded one frame at a time into a one-frame scratch buffer as
// the transport reads it, so no request ever materializes its whole body.
// It reads the caller's float slices directly, so the caller must fence it
// before it returns: the transport closes the body on every path, but an
// early 429 or 413 can arrive while the transport is still reading it.
type frameBody struct {
	mu     sync.Mutex
	frames [][]float64 // not yet encoded
	buf    []byte      // the frame being read; buf[off:] is unread
	off    int
	done   bool // closed or fenced: Read touches nothing
}

// newFramePost builds a POST to u whose body is tctx's trace frame (none
// when tctx is invalid) followed by frames, encoded in scratch's storage.
// ContentLength is exact, so the transport streams the body unchunked, and
// every body built over the same frames yields the same bytes.
func newFramePost(u string, scratch []byte, tctx trace.Context, frames [][]float64) (*http.Request, *frameBody, error) {
	body := &frameBody{frames: frames, buf: AppendTraceFrame(scratch[:0], tctx)}
	size := int64(len(body.buf))
	for _, f := range frames {
		size += wire.Overhead + 8*int64(len(f))
	}
	req, err := http.NewRequest(http.MethodPost, u, body)
	if err != nil {
		return nil, nil, err
	}
	req.ContentLength = size
	if size == 0 {
		req.Body = http.NoBody
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return req, body, nil
}

func (b *frameBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for n < len(p) && !b.done {
		if b.off == len(b.buf) {
			if len(b.frames) == 0 {
				break
			}
			b.buf, b.off = AppendFloatFrame(b.buf[:0], b.frames[0]), 0
			b.frames = b.frames[1:]
		}
		c := copy(p[n:], b.buf[b.off:])
		b.off += c
		n += c
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Close is the transport's close; it fences the body like fence.
func (b *frameBody) Close() error {
	b.fence()
	return nil
}

// fence waits out a Read in progress and makes every later Read return
// io.EOF without touching the frames, so once it returns the caller's
// slices are the caller's again. It returns the scratch buffer for reuse.
// A transport still writing the body sees it end short and drops the
// connection; that only happens once the server has already answered.
func (b *frameBody) fence() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done, b.frames = true, nil
	return b.buf[:0]
}

// respError drains an error response into a readable error.
func respError(opName string, resp *http.Response) error {
	defer resp.Body.Close()
	var eb errorBody
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
	if eb.Error == "" {
		eb.Error = resp.Status
	}
	return fmt.Errorf("server: %s: HTTP %d: %s", opName, resp.StatusCode, eb.Error)
}
