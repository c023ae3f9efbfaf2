package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// engine is one replica's summation state machine: Shards independent
// SuperAccumulators, each folded by whichever ingest holds its token. The
// free channel holds the idle shards; taking one from it is both the
// shard's lock and the admission gate. Because HP addition is exactly
// associative and commutative, which shard a frame lands on and the order
// the folds run in leave the merged sum bit-identical. The HTTP skin never
// touches an engine directly — an Accumulator replicates accepted frames
// across k-of-n engines and certifies that their states agree (replica.go).
type engine struct {
	name   string
	params core.Params
	cfg    Config
	shards []*shard    // fixed merge order
	free   chan *shard // idle shards

	// Seed state: a restored state image (or a reseed hand-off from the
	// agreed state) lands the HP value on shard 0 and carries its counters and
	// sticky error here.
	baseAdds    uint64
	baseFrames  uint64
	restoredErr error
}

// op is one unit of ingest: an HP partial when hp is set, else a float
// batch as its wire payload (8-byte big-endian IEEE-754 values) — the
// only copy of the values, folded and journaled in place.
type op struct {
	payload []byte
	hp      *core.HP
	tctx    trace.Context // ingest span context; the fold becomes its child
}

// shard is one partial sum and its counters, owned by the holder of its
// token.
type shard struct {
	b      *core.SuperAccumulator
	adds   uint64
	frames uint64
}

// engineState is an engine's merged state: the canonical merged sum
// (caller-owned), the counters, and the first sticky error.
type engineState struct {
	sum    *core.HP
	err    error
	adds   uint64
	frames uint64
}

func newEngine(name string, p core.Params, cfg Config) *engine {
	e := &engine{name: name, params: p, cfg: cfg,
		shards: make([]*shard, cfg.Shards), free: make(chan *shard, cfg.Shards)}
	for i := range e.shards {
		e.shards[i] = &shard{b: core.NewSuper(p)}
		e.free <- e.shards[i]
	}
	return e
}

// take claims an idle shard. With wait=false it is the admission gate: it
// waits up to EnqueueWait for a shard to come free, and a persistently busy
// engine is ErrBusy (backpressure). With wait=true it blocks until a shard
// is free — the replication fan-out path, where the frame is already
// admitted and must land on every active replica. A shard is held only for
// one fold, so the wait is bounded by the folds in flight.
func (e *engine) take(wait bool) (*shard, error) {
	select {
	case sh := <-e.free:
		return sh, nil
	default:
	}
	if wait {
		return <-e.free, nil
	}
	t := time.NewTimer(e.cfg.EnqueueWait)
	defer t.Stop()
	select {
	case sh := <-e.free:
		return sh, nil
	case <-t.C:
		mRejectedAdds.Inc()
		flight.Event("backpressure-429",
			trace.Str("acc", e.name),
			trace.Int("shards", int64(len(e.shards))))
		return nil, ErrBusy
	}
}

// fold claims a shard (see take), folds o into its SuperAccumulator — the
// exponent-indexed frontend, the fastest serial fold — and hands the shard
// back. Nothing of o is retained.
func (e *engine) fold(o op, wait bool) error {
	var start time.Time
	if telemetry.Enabled() {
		start = time.Now()
	}
	sh, err := e.take(wait)
	if err != nil {
		return err
	}
	sp := trace.Start(o.tctx, "server.fold")
	if o.hp != nil {
		sp.Attr(trace.Str("kind", "hp"))
		sh.b.AddHP(o.hp)
		sh.frames++
	} else {
		n := len(o.payload) / 8
		sp.Attr(trace.Int("values", int64(n)))
		sh.b.AddFloat64sBE(o.payload)
		sh.adds += uint64(n)
		sh.frames++
	}
	sp.End()
	e.free <- sh
	if !start.IsZero() {
		mDrainLatency.Observe(time.Since(start).Seconds())
	}
	return nil
}

// state merges the shard partials in fixed shard order through the
// sign-rule overflow check — the replica's deterministic combine point,
// mirroring omp.Reduce's MergeChecked. The merged limbs are bit-identical
// for every assignment of frames to shards; only the overflow verdict
// depends on the combine trajectory, which the fixed order pins given the
// shard partials. The caller holds the Accumulator's replication lock
// exclusively, so no fold is in flight.
func (e *engine) state() engineState {
	merged := core.NewAccumulator(e.params)
	adds, frames := e.baseAdds, e.baseFrames
	firstErr := e.restoredErr
	for _, sh := range e.shards {
		if err := sh.b.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
		merged.AddHP(sh.b.Sum())
		adds += sh.adds
		frames += sh.frames
	}
	if firstErr == nil {
		firstErr = merged.Err()
	}
	return engineState{sum: merged.Sum(), err: firstErr, adds: adds, frames: frames}
}

// seed installs an agreed state: its HP value is added into shard 0
// (associativity makes the landing shard irrelevant) and the counters and
// sticky error are carried at the engine level. Only valid before the
// engine serves reads, or while its Accumulator holds the write lock.
func (e *engine) seed(st engineState) error {
	if st.sum.Params() != e.params {
		return core.ErrParamMismatch
	}
	e.shards[0].b.AddHP(st.sum)
	e.baseAdds, e.baseFrames, e.restoredErr = st.adds, st.frames, st.err
	return nil
}
