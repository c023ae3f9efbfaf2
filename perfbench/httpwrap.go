package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// newTransport is the client transport every workload's load generator
// shares: one connection per load goroutine, kept alive.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
}

// clientHTTP returns the http.Client one load goroutine drives its
// server.Client with. With a recorder it is wrapped in a spanTransport so
// each RoundTrip becomes a client.roundtrip span under the goroutine's
// current operation, and the span context rides to the server in a header.
func clientHTTP(base http.RoundTripper, rec *recorder) (*http.Client, *spanTransport) {
	if rec == nil {
		return &http.Client{Transport: base}, nil
	}
	st := &spanTransport{base: base, rec: rec}
	return &http.Client{Transport: st}, st
}

// spanTransport times RoundTrip for one load goroutine. parent is the
// operation the goroutine is in; it is set before each client call and
// only read by RoundTrip on the same goroutine's call path.
type spanTransport struct {
	base   http.RoundTripper
	rec    *recorder
	parent spanCtx
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.rec.start(t.parent, "client.roundtrip")
	defer sp.end()
	r := req.Clone(req.Context()) // a RoundTripper must not modify its request
	r.Header.Set(spanHeader, sp.ctx().header())
	return t.base.RoundTrip(r)
}

// setParent points the goroutine's roundtrip spans at op (no-op untraced).
func (t *spanTransport) setParent(op spanCtx) {
	if t != nil {
		t.parent = op
	}
}

// handlerName names the server span of a service request: ingest POSTs
// are writes, GETs of one accumulator are certified reads.
func handlerName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/add"):
		return "server.write"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/acc/"):
		return "server.read"
	case strings.HasPrefix(r.URL.Path, "/gossip"):
		return "gossip.handle"
	}
	return "server.other"
}

// spanHandler wraps a server handler from outside. While slot holds a
// recorder, each request becomes a span (named by handlerName) under the
// client span named in its header, and the time the handler spent blocked
// reading its body becomes one <layer>.body_wait child — the summed reads,
// placed at the handler's start, which is all self-time accounting needs
// since the reads never overlap.
func spanHandler(h http.Handler, slot *atomic.Pointer[recorder]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := slot.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		name := handlerName(r)
		sp := rec.start(parseSpanHeader(r.Header), name)
		body := &timedBody{ReadCloser: r.Body}
		r.Body = body
		h.ServeHTTP(w, r)
		sp.end()
		if body.wait > 0 {
			layer, _, _ := strings.Cut(name, ".")
			rec.record(sp.ctx(), layer+".body_wait", sp.rec.start, sp.rec.start+int64(body.wait))
		}
	})
}

// timedBody sums the time Read blocks.
type timedBody struct {
	io.ReadCloser
	wait time.Duration
}

func (b *timedBody) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.wait += time.Since(t)
	return n, err
}

// telem is one snapshot of the program's own metrics, read the way an
// operator would: through telemetry.Handler's JSON exposition.
type telem map[string]json.RawMessage

func readTelemetry() (telem, error) {
	rr := httptest.NewRecorder()
	telemetry.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	var t telem
	if err := json.Unmarshal(rr.Body.Bytes(), &t); err != nil {
		return nil, fmt.Errorf("telemetry snapshot: %w", err)
	}
	return t, nil
}

// counter returns a counter or gauge value (0 when absent).
func (t telem) counter(name string) float64 {
	var v float64
	_ = json.Unmarshal(t[name], &v) // absent: the metric's package is idle
	return v
}

// hist returns a histogram's observation sum and count.
func (t telem) hist(name string) (sum, count float64) {
	var h struct {
		Sum   float64 `json:"sum"`
		Count float64 `json:"count"`
	}
	_ = json.Unmarshal(t[name], &h)
	return h.Sum, h.Count
}

// since returns the counter's growth from before to t.
func (t telem) since(before telem, name string) float64 {
	return t.counter(name) - before.counter(name)
}

// histMeanSince is the mean of the observations made between before and t.
func (t telem) histMeanSince(before telem, name string) float64 {
	s1, c1 := t.hist(name)
	s0, c0 := before.hist(name)
	return ratio(s1-s0, c1-c0)
}
