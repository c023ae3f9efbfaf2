package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps the traced run's spans in memory until the run ends. The
// spans are taken in the benchmark's own code around calls into the
// program's public entry points; the program itself is not instrumented. A
// nil recorder records nothing, which is how the untraced run keeps tracing
// off.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span: its name, the operation it belongs to
// (shared by every span of one operation), its own id, its parent's id (0
// for an operation's root), and its start and end in nanoseconds since the
// recorder was made.
type spanRec struct {
	name           string
	op, id, parent uint64
	start, end     int64
}

func (s spanRec) interval() interval { return interval{s.start, s.end} }

// spanCtx is what a child needs from its parent.
type spanCtx struct{ op, id uint64 }

// span is an open span; end records it.
type span struct {
	r   *recorder
	rec spanRec
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span under parent; a zero parent starts a new operation.
func (r *recorder) start(parent spanCtx, name string) span {
	if r == nil {
		return span{}
	}
	id := r.ids.Add(1)
	op := parent.op
	if op == 0 {
		op = id
	}
	return span{r: r, rec: spanRec{name: name, op: op, id: id, parent: parent.id, start: r.now()}}
}

func (s span) ctx() spanCtx { return spanCtx{s.rec.op, s.rec.id} }

func (s span) end() {
	if s.r == nil {
		return
	}
	s.rec.end = s.r.now()
	s.r.add(s.rec)
}

// record adds a finished span measured elsewhere under parent.
func (r *recorder) record(parent spanCtx, name string, start, end int64) {
	r.add(spanRec{name: name, op: parent.op, id: r.ids.Add(1), parent: parent.id, start: start, end: end})
}

func (r *recorder) add(s spanRec) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// spanHeader carries a span context from the benchmark's client-side
// RoundTripper to its server-side handler wrapper, so a server handler span
// joins the operation of the client call that caused it. The program never
// reads it.
const spanHeader = "Perfbench-Span"

func (c spanCtx) header() string {
	return strconv.FormatUint(c.op, 10) + ":" + strconv.FormatUint(c.id, 10)
}

func parseSpanHeader(h http.Header) spanCtx {
	op, id, ok := strings.Cut(h.Get(spanHeader), ":")
	if !ok {
		return spanCtx{}
	}
	o, err1 := strconv.ParseUint(op, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanCtx{}
	}
	return spanCtx{o, i}
}

// layerStat aggregates every span of one name.
type layerStat struct {
	count       int
	total, self int64 // summed duration and summed self time, ns
}

func (l *layerStat) meanMs() float64 { return ratio(float64(l.total), float64(l.count)) / 1e6 }

// analysis indexes a finished trace.
type analysis struct {
	spans    []spanRec
	children map[uint64][]spanRec
	byName   map[string]*layerStat
}

func (r *recorder) analyze() *analysis {
	a := &analysis{children: map[uint64][]spanRec{}, byName: map[string]*layerStat{}}
	if r == nil {
		return a
	}
	r.mu.Lock()
	a.spans = append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	for _, s := range a.spans {
		if s.parent != 0 {
			a.children[s.parent] = append(a.children[s.parent], s)
		}
	}
	for _, s := range a.spans {
		kids := make([]interval, 0, len(a.children[s.id]))
		for _, k := range a.children[s.id] {
			kids = append(kids, k.interval())
		}
		st := a.layer(s.name)
		st.count++
		st.total += s.end - s.start
		st.self += selfTime(s.interval(), kids)
	}
	return a
}

// layer returns the named aggregate (a zero one when no span had the name).
func (a *analysis) layer(name string) *layerStat {
	st := a.byName[name]
	if st == nil {
		st = &layerStat{}
		a.byName[name] = st
	}
	return st
}

// blocking walks the critical path of every operation rooted at a span
// called root and returns, per layer name, the self time that lay on it,
// summed over those operations, plus their count and summed wall time.
// Along the path each span is charged for the time none of its children on
// the path covered; a child that ran in parallel with a later-ending
// sibling (another worker's fold, say) is off the path.
func (a *analysis) blocking(root string) (perLayer map[string]int64, ops int, wall int64) {
	perLayer = map[string]int64{}
	for _, s := range a.spans {
		if s.name == root && s.parent == 0 {
			ops++
			wall += s.end - s.start
			a.critical(s, perLayer)
		}
	}
	return perLayer, ops, wall
}

func (a *analysis) critical(s spanRec, into map[string]int64) {
	kids := append([]spanRec(nil), a.children[s.id]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].end > kids[j].end })
	cur := s.end
	for _, k := range kids {
		if k.end > cur || k.end <= s.start {
			continue // overlaps the part of the path already walked
		}
		into[s.name] += cur - k.end
		k.start = max(k.start, s.start)
		a.critical(k, into)
		cur = k.start
	}
	if cur > s.start {
		into[s.name] += cur - s.start
	}
}
