package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// HTTP surface:
//
//	PUT    /v1/acc/{name}        create (optional JSON body {"n":N,"k":K})
//	GET    /v1/acc/{name}        flush + read: Info JSON (rounded sum + HP text)
//	DELETE /v1/acc/{name}        delete
//	GET    /v1/acc               list names and formats
//	POST   /v1/acc/{name}/add    streaming binary ingest (frames; see frame.go)
//	POST   /v1/sum               one-shot: frames in, Info JSON out (?n=&k=)
//
// Ingest semantics: frames are admitted one at a time; each accepted frame
// is folded before the next is read, so the frames_accepted count in
// every response (success or error) tells the client exactly which prefix
// of its stream the server owns. On 429 the client resends the unaccepted
// suffix — double-sending an accepted frame would double-count it, but
// re-sending an unaccepted one is always safe, and since addition is
// commutative the retry needs no ordering care.

// AddResult is the ingest response body. On errors it is embedded alongside
// an error string so clients can resume precisely.
type AddResult struct {
	FramesAccepted int    `json:"frames_accepted"`
	ValuesAccepted int    `json:"values_accepted"`
	Error          string `json:"error,omitempty"`
}

// Handler returns the service mux. Mount it alone, or alongside the
// telemetry exporter's mux on one listener as cmd/hpsumd does.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/acc/{name}", s.handleCreate)
	mux.HandleFunc("GET /v1/acc/{name}", s.handleGet)
	mux.HandleFunc("DELETE /v1/acc/{name}", s.handleDelete)
	mux.HandleFunc("GET /v1/acc", s.handleList)
	mux.HandleFunc("GET /v1/acc/{$}", s.handleList)
	mux.HandleFunc("POST /v1/acc/{name}/add", s.handleAdd)
	mux.HandleFunc("POST /v1/sum", s.handleSum)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	noteServerError(status, msg)
	writeJSON(w, status, errorBody{Error: msg})
}

// noteServerError records an escaped 5xx in the flight recorder and trips
// a dump: a server error on this service means an invariant broke (ingest
// failed for a non-backpressure reason, marshalling a sum failed), which is
// exactly the moment the recent-event rings are worth keeping.
func noteServerError(status int, msg string) {
	if status < 500 || status == http.StatusServiceUnavailable {
		return
	}
	flight.Event("server-5xx", trace.Int("status", int64(status)), trace.Str("error", msg))
	trace.TripDump("server-5xx", fmt.Sprintf("HTTP %d: %s", status, msg))
}

type createRequest struct {
	N int `json:"n"`
	K int `json:"k"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	name := r.PathValue("name")
	var req createRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad create body: %v", err)
			return
		}
	}
	a, created, err := s.Create(name, core.Params{N: req.N, K: req.K})
	switch {
	case err == nil:
	case errors.Is(err, ErrBadName):
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, ErrExists):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrServerClosed):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, Info{Name: a.Name(), N: a.params.N, K: a.params.K,
		Shards: a.cfg.Shards, HP: "", Sum: 0})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	a := s.Lookup(r.PathValue("name"))
	if a == nil {
		writeErr(w, http.StatusNotFound, "no accumulator %q", r.PathValue("name"))
		return
	}
	info, err := a.Certified()
	switch {
	case err == nil:
	case errors.Is(err, ErrDiverged):
		// Fail closed: never serve a value the replicas did not agree on.
		// The certification pass has already quarantined and reseeded the
		// minority, so a retry is expected to succeed.
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	if !s.Delete(r.PathValue("name")) {
		writeErr(w, http.StatusNotFound, "no accumulator %q", r.PathValue("name"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

type listEntry struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	K      int    `json:"k"`
	Shards int    `json:"shards"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	names := s.Names()
	out := struct {
		Accumulators []listEntry `json:"accumulators"`
	}{Accumulators: make([]listEntry, 0, len(names))}
	for _, name := range names {
		if a := s.Lookup(name); a != nil {
			out.Accumulators = append(out.Accumulators,
				listEntry{Name: name, N: a.params.N, K: a.params.K, Shards: a.cfg.Shards})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// ingestFrame is one decoded, validated frame of a request body; Type
// says which of Payload (FrameFloat64), HP (FrameHP, already in the
// target format) or Ctx (FrameTrace) carries it. Payload is the verified
// float64 payload in the frame decoder's buffer, overwritten by the next
// frame: it is valid only until sink returns.
type ingestFrame struct {
	Type    byte
	Payload []byte
	HP      *core.HP
	Ctx     trace.Context
}

// values is the number of float64s the frame carries (0 unless FrameFloat64).
func (f *ingestFrame) values() int { return len(f.Payload) / 8 }

// readFrames is the one frame-reading loop behind both ingest endpoints.
// It re-arms the FrameReadTimeout read deadline before every frame, so a
// client that stalls mid-body cannot hold the handler; caps the body at
// MaxRequestBytes, each payload at MaxFramePayload and the data frames at
// MaxRequestFrames; decodes each frame (a FrameHP must be in format p, a
// float frame's payload is scanned for NaN and ±Inf while it is still in
// cache from the CRC, and is never decoded) and hands it to sink, so a
// non-finite value is a 400 before anything is folded. It returns nil at
// a clean end of stream, else the HTTP status and error that ended the
// request: 408 for a stall, 413 for a cap, 400 for a bad frame, or
// whatever sink returned.
func (s *Server) readFrames(w http.ResponseWriter, r *http.Request, p core.Params,
	sink func(ingestFrame) (int, error)) (int, error) {
	rc := http.NewResponseController(w)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := wire.NewDecoder(bufio.NewReader(body), &IngestFrames, s.cfg.MaxFramePayload)
	frames := 0
	for {
		// ErrNotSupported (e.g. an httptest.ResponseRecorder) just means no
		// deadline enforcement, which is fine for in-process use.
		if err := rc.SetReadDeadline(time.Now().Add(s.cfg.FrameReadTimeout)); err != nil &&
			!errors.Is(err, http.ErrNotSupported) {
			return http.StatusInternalServerError, fmt.Errorf("arming read deadline: %w", err)
		}
		f, err := dec.Next()
		if isEOF(err) {
			return 0, nil
		}
		if err != nil {
			mBadFrames.Inc()
			switch {
			case isMaxBytes(err):
				return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxRequestBytes)
			case isTimeout(err):
				return http.StatusRequestTimeout, fmt.Errorf("frame read stalled past %s", s.cfg.FrameReadTimeout)
			case errors.Is(err, ErrFrameTooLarge):
				return http.StatusRequestEntityTooLarge, err
			default:
				return http.StatusBadRequest, err
			}
		}
		if f.Type != FrameTrace {
			if frames >= s.cfg.MaxRequestFrames {
				return http.StatusRequestEntityTooLarge,
					fmt.Errorf("more than %d frames in one request", s.cfg.MaxRequestFrames)
			}
			frames++
		}
		fr := ingestFrame{Type: f.Type}
		switch f.Type {
		case FrameTrace:
			fr.Ctx, err = frameTrace(f.Payload)
		case FrameHP:
			fr.HP, err = frameHP(f.Payload)
			if err == nil && fr.HP.Params() != p {
				err = fmt.Errorf("HP frame is (N=%d,k=%d), want (N=%d,k=%d)",
					fr.HP.Params().N, fr.HP.Params().K, p.N, p.K)
			}
		default:
			err = checkFloatFrame(f.Payload)
			fr.Payload = f.Payload
		}
		if err != nil {
			mBadFrames.Inc()
			return http.StatusBadRequest, err
		}
		if status, err := sink(fr); err != nil {
			return status, err
		}
	}
}

// handleAdd is the streaming ingest endpoint: readFrames decodes the body
// and every data frame is folded whole before the next is read.
//
// Idempotent resume: a request may carry an Ingest-Id header naming its
// frame stream. The server remembers, per accumulator, how many data frames
// each id has already been accepted for; a client whose connection died
// mid-POST — after frames were accepted but before the response could say
// so — retries with the same id and the identical body, and the server
// decodes-and-skips the already-owned prefix instead of double-counting it.
// The response's frames_accepted is always the id's total, so the resume
// arithmetic is the same as the 429 path's.
func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	a := s.Lookup(r.PathValue("name"))
	if a == nil {
		writeErr(w, http.StatusNotFound, "no accumulator %q", r.PathValue("name"))
		return
	}
	ingestID := r.Header.Get("Ingest-Id")
	skip := a.resumeCount(ingestID)

	// Ingest span, started lazily at the first frame so a leading
	// FrameTrace can parent it under the client's send span. One span per
	// request; when tracing is off every operation below is free.
	var span trace.Span
	spanStarted := false
	ensureSpan := func(parent trace.Context) {
		if spanStarted {
			return
		}
		spanStarted = true
		if !parent.Valid() {
			parent = trace.NewTrace()
		}
		span = trace.Start(parent, "server.ingest")
		span.Attr(trace.Str("acc", a.name))
	}
	var res AddResult
	defer func() {
		span.Attr(trace.Int("frames", int64(res.FramesAccepted)))
		span.Attr(trace.Int("values", int64(res.ValuesAccepted)))
		span.End()
	}()

	status, err := s.readFrames(w, r, a.params, func(f ingestFrame) (int, error) {
		if f.Type == FrameTrace {
			// Metadata, not data: adopt the client's context for this
			// request's ingest span, count nothing, touch no state. The
			// resume protocol is untouched because frames_accepted only
			// ever counts data frames.
			ensureSpan(f.Ctx)
			return 0, nil
		}
		ensureSpan(trace.Context{})
		if res.FramesAccepted < skip {
			// Already accepted under this Ingest-Id on a previous attempt:
			// decoded (so the stream position advances) but not re-counted
			// into the sum. It still counts toward frames_accepted — that
			// number reports the id's owned prefix.
			res.FramesAccepted++
			res.ValuesAccepted += f.values()
			return 0, nil
		}
		var err error
		if f.Type == FrameHP {
			err = a.AddHPTraced(f.HP, span.Context())
		} else {
			err = a.ingest(op{payload: f.Payload, tctx: span.Context()})
		}
		switch {
		case err == nil:
			res.FramesAccepted++
			res.ValuesAccepted += f.values()
			mFrames.Inc()
			mValues.Add(uint64(f.values()))
			a.noteAccepted(ingestID, res.FramesAccepted)
			return 0, nil
		case errors.Is(err, ErrBusy):
			return http.StatusTooManyRequests, errors.New("every shard busy; retry unaccepted frames")
		case errors.Is(err, ErrGone):
			return http.StatusGone, errors.New("accumulator deleted mid-stream")
		default:
			return http.StatusInternalServerError, err
		}
	})
	if err == nil {
		writeJSON(w, http.StatusOK, res)
		return
	}
	res.Error = err.Error()
	noteServerError(status, res.Error)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, res)
}

// handleSum is the one-shot endpoint: readFrames decodes the body into a
// request-local serial accumulator and the response is its Info. ?n=&k=
// select the format (default: the server's).
func (s *Server) handleSum(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	p := s.cfg.Params
	q := r.URL.Query()
	if q.Get("n") != "" || q.Get("k") != "" {
		n, err1 := strconv.Atoi(q.Get("n"))
		k, err2 := strconv.Atoi(q.Get("k"))
		if err1 != nil || err2 != nil {
			writeErr(w, http.StatusBadRequest, "bad n/k query parameters")
			return
		}
		p = core.Params{N: n, K: k}
	}
	if err := validFormat(p); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := core.NewSuper(p)
	var adds, frames uint64
	status, err := s.readFrames(w, r, p, func(f ingestFrame) (int, error) {
		switch f.Type {
		case FrameTrace:
			return 0, nil // metadata: never counted, never summed
		case FrameHP:
			b.AddHP(f.HP)
		default:
			b.AddFloat64sBE(f.Payload)
			adds += uint64(f.values())
			mValues.Add(uint64(f.values()))
		}
		frames++
		mFrames.Inc()
		return 0, nil
	})
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	sum := b.Sum()
	txt, err := sum.MarshalText()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	info := Info{N: p.N, K: p.K, Adds: adds, Frames: frames, Sum: b.Float64(), HP: string(txt)}
	if b.Err() != nil {
		info.Err = b.Err().Error()
	}
	writeJSON(w, http.StatusOK, info)
}

// isEOF reports a clean end of the frame stream (no partial frame).
func isEOF(err error) bool { return err == io.EOF }

// isMaxBytes reports that http.MaxBytesReader cut the body off.
func isMaxBytes(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// isTimeout reports a read-deadline expiry (net.Error with Timeout, or an
// os timeout) anywhere in the wrapped chain.
func isTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return os.IsTimeout(err)
}
