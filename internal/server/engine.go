package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// engine is one replica's summation state machine: Shards independent
// SuperAccumulators, each owned by a drain goroutine fed from a bounded
// channel. Frames are dispatched round-robin; because HP addition is exactly
// associative and commutative, the dispatch policy, queue interleaving, and
// shard count leave the merged sum bit-identical. The HTTP skin never
// touches an engine directly — an Accumulator replicates accepted frames
// across k-of-n engines and certifies that their states agree (replica.go).
type engine struct {
	name   string
	params core.Params
	cfg    Config
	shards []*shard
	next   atomic.Uint64 // round-robin dispatch cursor

	// Seed state: a restored state image (or a reseed hand-off from the
	// agreed state) lands the HP value on shard 0 and carries its counters and
	// sticky error here.
	baseAdds    uint64
	baseFrames  uint64
	restoredErr error

	stopOnce sync.Once
}

// op is one unit of shard work: exactly one of xs (a float batch), hp (an
// HP partial), or snap (a flush-and-report request) is set.
type op struct {
	xs   []float64
	buf  *frameBuf // pooled storage behind xs, one reference held; nil: none
	hp   *core.HP
	snap chan shardState
	seed bool          // restore seed: fold the value in without counting a frame
	enq  time.Duration // since enqEpoch, set when telemetry is recording; zero otherwise
	tctx trace.Context // ingest span context; folds become its children
}

// enqEpoch anchors op enqueue stamps. Every shard queue slot holds an op,
// so its size is resident memory times QueueDepth, shards, replicas and
// accumulators; a monotonic offset takes 8 bytes where a time.Time takes 24.
var enqEpoch = time.Now()

// shardState is a shard's reply to a snap op: the canonical partial sum
// (cloned, caller-owned) plus its counters and sticky error.
type shardState struct {
	sum    *core.HP
	err    error
	adds   uint64
	frames uint64
}

// frameBuf is the pooled, reference-counted storage of one decoded float
// frame. The decoder takes it from framePool holding one reference for the
// request handler; ingest adds one per replica op it enqueues, each shard
// drain drops its own after the fold, and the last release returns the
// buffer to the pool. sync.Pool empties on GC, so idle buffers never pin
// memory. A nil *frameBuf (a slice handed in through AddFloats, which the
// accumulator then owns) makes retain and release no-ops.
type frameBuf struct {
	xs   []float64
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// decodeFloatFrame decodes a FrameFloat64 payload into a pooled buffer
// whose one reference the caller owns.
func decodeFloatFrame(payload []byte) (*frameBuf, error) {
	fb := framePool.Get().(*frameBuf)
	fb.refs.Store(1)
	xs, err := frameFloats(fb.xs, payload)
	if err != nil {
		fb.release()
		return nil, err
	}
	fb.xs = xs
	return fb, nil
}

func (fb *frameBuf) retain() {
	if fb != nil {
		fb.refs.Add(1)
	}
}

func (fb *frameBuf) release() {
	if fb != nil && fb.refs.Add(-1) == 0 {
		framePool.Put(fb)
	}
}

type shard struct {
	ops  chan op
	quit chan struct{} // closed by stop(): drop queued work and exit
	done chan struct{} // closed when the drain goroutine returns
}

// engineState is an engine's merged reply to a full flush: the canonical
// merged sum (caller-owned), the counters, and the first sticky error.
type engineState struct {
	sum    *core.HP
	err    error
	adds   uint64
	frames uint64
}

func newEngine(name string, p core.Params, cfg Config) *engine {
	e := &engine{name: name, params: p, cfg: cfg}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		sh := &shard{
			ops:  make(chan op, cfg.QueueDepth),
			quit: make(chan struct{}),
			done: make(chan struct{}),
		}
		e.shards[i] = sh
		go e.drain(sh)
	}
	return e
}

// drain is the shard's owner goroutine: it applies queued operations to its
// private SuperAccumulator (the exponent-indexed frontend — the fastest
// serial fold) until the ops channel is closed (graceful close, queue fully
// applied) or quit is closed (delete, queue dropped).
func (e *engine) drain(sh *shard) {
	defer close(sh.done)
	b := core.NewSuper(e.params)
	var adds, frames uint64
	apply := func(o op) {
		switch {
		case o.snap != nil:
			sp := trace.Start(o.tctx, "server.snapshot")
			o.snap <- shardState{sum: b.Sum().Clone(), err: b.Err(), adds: adds, frames: frames}
			sp.End()
		case o.hp != nil:
			sp := trace.Start(o.tctx, "server.fold")
			sp.Attr(trace.Str("kind", "hp"))
			b.AddHP(o.hp)
			if !o.seed {
				frames++
			}
			sp.End()
		default:
			sp := trace.Start(o.tctx, "server.fold")
			sp.Attr(trace.Int("values", int64(len(o.xs))))
			b.AddSlice(o.xs)
			o.buf.release()
			adds += uint64(len(o.xs))
			frames++
			sp.End()
		}
		mQueueDepth.Dec()
		if o.enq != 0 {
			mDrainLatency.Observe((time.Since(enqEpoch) - o.enq).Seconds())
		}
	}
	for {
		select {
		case <-sh.quit:
			// Deleted: unblock any queued snap requests, drop the rest.
			for {
				select {
				case o := <-sh.ops:
					if o.snap != nil {
						o.snap <- shardState{err: ErrGone, sum: core.New(e.params)}
					}
					o.buf.release()
					mQueueDepth.Dec()
				default:
					return
				}
			}
		case o, ok := <-sh.ops:
			if !ok {
				return
			}
			apply(o)
		}
	}
}

// stop signals every shard to exit, dropping queued work (delete semantics).
func (e *engine) stop() {
	e.stopOnce.Do(func() {
		for _, sh := range e.shards {
			close(sh.quit)
		}
	})
	for _, sh := range e.shards {
		<-sh.done
	}
}

// closeDrain closes the ops channels so the drains apply everything still
// queued and exit (graceful shutdown semantics). The caller guarantees no
// concurrent enqueues.
func (e *engine) closeDrain() {
	for _, sh := range e.shards {
		close(sh.ops)
	}
	for _, sh := range e.shards {
		<-sh.done
	}
}

// enqueue places o on the next shard in round-robin order. With wait=false
// it is the admission gate: it waits up to EnqueueWait for room, and a
// persistently full queue is ErrBusy (backpressure). With wait=true it
// blocks until the shard has room — the replication fan-out path, where the
// frame is already admitted and must land on every active replica. A
// deleted engine is ErrGone either way.
func (e *engine) enqueue(o op, wait bool) error {
	if telemetry.Enabled() {
		o.enq = time.Since(enqEpoch)
	}
	sh := e.shards[e.next.Add(1)%uint64(len(e.shards))]
	select {
	case <-sh.quit:
		return ErrGone
	default:
	}
	select {
	case sh.ops <- o:
		mQueueDepth.Inc()
		return nil
	default:
	}
	if wait {
		select {
		case sh.ops <- o:
			mQueueDepth.Inc()
			return nil
		case <-sh.quit:
			return ErrGone
		}
	}
	t := time.NewTimer(e.cfg.EnqueueWait)
	defer t.Stop()
	select {
	case sh.ops <- o:
		mQueueDepth.Inc()
		return nil
	case <-sh.quit:
		return ErrGone
	case <-t.C:
		mRejectedAdds.Inc()
		flight.Event("backpressure-429",
			trace.Str("acc", e.name),
			trace.Int("queue_depth", mQueueDepth.Value()),
			trace.Int("queue_cap", int64(e.cfg.QueueDepth*len(e.shards))))
		return ErrBusy
	}
}

// state flushes every shard (a snap op queues behind all previously
// accepted work, so the reply reflects every frame acked before the call)
// and merges the partials in fixed shard order through the sign-rule
// overflow check — the replica's deterministic combine point, mirroring
// omp.Reduce's MergeChecked. The merged limbs are bit-identical for every
// dispatch interleaving; only the overflow verdict depends on the combine
// trajectory, which the fixed order pins given the shard partials.
func (e *engine) state(tctx trace.Context) (engineState, error) {
	replies := make([]chan shardState, len(e.shards))
	for i, sh := range e.shards {
		ch := make(chan shardState, 1)
		select {
		case sh.ops <- op{snap: ch, tctx: tctx}:
			mQueueDepth.Inc()
		case <-sh.quit:
			return engineState{}, ErrGone
		}
		replies[i] = ch
	}
	merged := core.NewAccumulator(e.params)
	adds, frames := e.baseAdds, e.baseFrames
	firstErr := e.restoredErr
	for i, ch := range replies {
		var st shardState
		select {
		case st = <-ch:
		case <-e.shards[i].done:
			// Graceful close raced the snap: the drain applied it before
			// exiting, or dropped it via quit; try a non-blocking read.
			select {
			case st = <-ch:
			default:
				return engineState{}, ErrGone
			}
		}
		if st.err != nil && firstErr == nil {
			firstErr = st.err
		}
		merged.AddHP(st.sum)
		adds += st.adds
		frames += st.frames
	}
	if firstErr == nil {
		firstErr = merged.Err()
	}
	return engineState{sum: merged.Sum(), err: firstErr, adds: adds, frames: frames}, nil
}

// seed installs an agreed state: a copy of its HP value lands on shard 0's
// queue (associativity makes the landing shard irrelevant) and the counters
// and sticky error are carried at the engine level. Only valid before the
// engine serves reads, or while its Accumulator holds the write lock.
func (e *engine) seed(st engineState) error {
	if st.sum.Params() != e.params {
		return core.ErrParamMismatch
	}
	if err := e.enqueue(op{hp: st.sum.Clone(), seed: true}, true); err != nil {
		return err
	}
	e.baseAdds, e.baseFrames, e.restoredErr = st.adds, st.frames, st.err
	return nil
}
