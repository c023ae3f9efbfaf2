// Package trace is a zero-dependency (stdlib-only) tracing layer for the
// summation pipeline, built in the style of internal/telemetry: recording
// is off by default, every hot-path call is gated on one atomic load, and
// the instrumentation never touches accumulator state, so sums stay
// bit-identical with tracing on or off.
//
// Two facilities live here:
//
//   - Spans: when enabled (and sampled), code brackets operations in
//     Span values carrying a (trace id, span id, parent span) context.
//     Completed spans land in lock-free sharded ring buffers; the context
//     travels across wire boundaries (internal/server ingest frames,
//     internal/mpi message headers), so one ingest frame can be followed
//     client → server ingest → SuperAccumulator fold → merge, and an AllreduceFT round through every
//     rank including retransmits and recovery. Export as Chrome
//     trace-event JSON via WriteChromeTrace (chrome.go).
//
//   - Flight recorder: an always-on, bounded, per-subsystem ring of recent
//     events (flight.go), dumped as a schema-versioned JSON snapshot on
//     SIGQUIT, stall-watchdog trips, injected crashes, or server 5xx — the
//     forensic record of what the system was doing when it stalled.
//
// Ring writes are lock-free: a slot is claimed with one atomic add and
// published with one atomic pointer store, so recording in a hot loop
// never blocks readers or other writers. Records are immutable after
// publication, which is what makes concurrent snapshots race-free.
package trace

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"
)

// enabled is the process-wide span-recording gate. The zero value
// (disabled) makes every Start/End an atomic load plus a predicted branch,
// with zero allocations.
var enabled atomic.Bool

// Enabled reports whether span recording is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns span recording on or off and returns the previous
// state (convenient for tests: defer SetEnabled(SetEnabled(true))).
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// sampleEvery is the trace sampling stride: NewTrace starts recording 1 of
// every sampleEvery traces. 1 (the default) records everything.
var (
	sampleEvery   atomic.Uint64
	sampleCounter atomic.Uint64
)

func init() { sampleEvery.Store(1) }

// SetSampling records 1 in every n new traces (n <= 1 records all) and
// returns the previous stride. Sampling is decided once per trace at
// NewTrace, so a sampled trace keeps every one of its spans.
func SetSampling(n uint64) uint64 {
	if n < 1 {
		n = 1
	}
	return sampleEvery.Swap(n)
}

// idState seeds span/trace id generation; ids are splitmix64 outputs of a
// process-unique counter, so they are well-spread and never zero-colliding
// in practice without needing crypto randomness.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newID() uint64 {
	for {
		if id := splitmix64(idState.Add(1)); id != 0 {
			return id
		}
	}
}

// Context identifies a position in a trace: the trace it belongs to and
// the span that is current there. The zero value is invalid (not traced)
// and makes every operation on it free. It is 16 bytes and copies by
// value across goroutines, queues, and wire frames.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context belongs to a sampled trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// NewTrace opens a new trace and returns its root context (SpanID zero:
// the first Start under it becomes the root span). It returns the invalid
// Context when tracing is disabled or this trace lost the sampling draw.
func NewTrace() Context {
	if !enabled.Load() {
		return Context{}
	}
	if n := sampleEvery.Load(); n > 1 && sampleCounter.Add(1)%n != 0 {
		return Context{}
	}
	return Context{TraceID: newID()}
}

// Attr is one key/value annotation on a span or flight event. Str takes
// precedence when non-empty; otherwise the value is Int.
type Attr struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Int int64  `json:"int"`
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v} }

// maxAttrs bounds per-record annotations so records stay fixed-size.
const maxAttrs = 6

// Record is one completed (or in-flight) span as stored in the rings.
// Records are immutable once published; Dur is -1 on in-flight records.
type Record struct {
	TraceID uint64 `json:"trace"`
	SpanID  uint64 `json:"span"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // Unix nanoseconds
	Dur     int64  `json:"dur_ns"`   // -1 while in flight
	Shard   int    `json:"shard"`
	Slow    bool   `json:"slow,omitempty"`

	NAttrs int            `json:"-"`
	Attrs  [maxAttrs]Attr `json:"-"`
}

// AttrList returns the record's attributes as a slice (for JSON export).
func (r *Record) AttrList() []Attr { return r.Attrs[:r.NAttrs] }

// Span is an in-progress operation. The zero value (and any span started
// from an invalid context) is inert: all methods are no-ops. Spans are
// values; pass them down the stack, not across goroutines — hand the
// Context() across instead and Start a child on the other side.
type Span struct {
	ctx    Context // this span's own (trace, span) identity
	parent uint64
	name   string
	start  time.Time
	shard  int
	slot   int // in-flight table slot, -1 if untracked
	nattrs int
	attrs  [maxAttrs]Attr
}

// numShards mirrors telemetry's sharding: the smallest power of two
// covering GOMAXPROCS at start, capped at 64.
var numShards = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}()

// shardIndex hashes the address of a stack variable, the same
// goroutine-spreading trick telemetry's counters use.
func shardIndex() int {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return int((p >> 10) & uintptr(numShards-1))
}

// ringSize is the per-shard completed-span capacity (power of two).
const ringSize = 1 << 12

// activeSlots bounds the per-shard in-flight span table.
const activeSlots = 64

// ring is one shard's records: a claimed-by-atomic-add circular buffer of
// completed spans plus a small table of in-flight spans.
type ring struct {
	pos    atomic.Uint64
	slots  [ringSize]atomic.Pointer[Record]
	active [activeSlots]atomic.Pointer[Record]
}

var rings = func() []*ring {
	rs := make([]*ring, numShards)
	for i := range rs {
		rs[i] = &ring{}
	}
	return rs
}()

// dropped counts spans whose in-flight slot could not be claimed (table
// full); they are still recorded at End, only invisible to InFlight.
var droppedActive atomic.Uint64

// Start opens a span named name as a child of parent. An invalid parent
// yields an inert span: to root a new trace, pass NewTrace()'s context.
func Start(parent Context, name string) Span {
	if !parent.Valid() || !enabled.Load() {
		return Span{}
	}
	sp := Span{
		ctx:    Context{TraceID: parent.TraceID, SpanID: newID()},
		parent: parent.SpanID,
		name:   name,
		start:  time.Now(),
		shard:  shardIndex(),
		slot:   -1,
	}
	// Publish an in-flight record so dumps can show what was running.
	r := rings[sp.shard]
	inflight := &Record{
		TraceID: sp.ctx.TraceID, SpanID: sp.ctx.SpanID, Parent: sp.parent,
		Name: name, Start: sp.start.UnixNano(), Dur: -1, Shard: sp.shard,
	}
	for i := range r.active {
		if r.active[i].CompareAndSwap(nil, inflight) {
			sp.slot = i
			break
		}
	}
	if sp.slot < 0 {
		droppedActive.Add(1)
	}
	return sp
}

// StartRoot opens a new (sampled) trace with name as its root span.
func StartRoot(name string) Span { return Start(NewTrace(), name) }

// Context returns the span's own context, for parenting children or
// propagating across a queue or wire boundary. Invalid on inert spans.
func (s *Span) Context() Context { return s.ctx }

// Attr annotates the span. Attributes beyond the fixed capacity are
// dropped silently.
func (s *Span) Attr(a Attr) {
	if !s.ctx.Valid() || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = a
	s.nattrs++
}

// End completes the span: the finished record is published to the shard's
// ring (and the slow-op log when it crossed the threshold), and the
// in-flight slot is released. End on an inert or already-ended span is a
// no-op.
func (s *Span) End() {
	if !s.ctx.Valid() {
		return
	}
	dur := time.Since(s.start).Nanoseconds()
	rec := &Record{
		TraceID: s.ctx.TraceID, SpanID: s.ctx.SpanID, Parent: s.parent,
		Name: s.name, Start: s.start.UnixNano(), Dur: dur, Shard: s.shard,
		NAttrs: s.nattrs, Attrs: s.attrs,
	}
	if th := slowThreshold.Load(); th > 0 && dur >= th {
		rec.Slow = true
		recordSlow(rec)
	}
	r := rings[s.shard]
	if s.slot >= 0 {
		r.active[s.slot].Store(nil)
	}
	i := r.pos.Add(1) - 1
	r.slots[i&(ringSize-1)].Store(rec)
	s.ctx = Context{} // make double-End inert
}

// Snapshot returns the completed spans currently held in the rings,
// oldest first by start time. The returned records are shared immutable
// values; callers must not modify them.
func Snapshot() []*Record {
	var out []*Record
	for _, r := range rings {
		n := r.pos.Load()
		if n > ringSize {
			n = ringSize
		}
		for i := uint64(0); i < n; i++ {
			if rec := r.slots[i].Load(); rec != nil {
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// InFlight returns the spans started but not yet ended, oldest first.
func InFlight() []*Record {
	var out []*Record
	for _, r := range rings {
		for i := range r.active {
			if rec := r.active[i].Load(); rec != nil {
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Reset clears every span ring, the in-flight tables, and the slow-op log
// (for tests). It must not race with concurrent Start/End if an exact
// empty state is required.
func Reset() {
	for _, r := range rings {
		r.pos.Store(0)
		for i := range r.slots {
			r.slots[i].Store(nil)
		}
		for i := range r.active {
			r.active[i].Store(nil)
		}
	}
	resetSlow()
}
