// Package mpi is an in-process message-passing substrate standing in for
// the MPI environment of the paper's Figure 6. A world of P ranks runs as P
// goroutines; each rank owns a Comm handle providing point-to-point sends
// and receives (eager, buffered, FIFO-ordered per sender/receiver pair with
// tag matching) and the collectives the experiment needs: Barrier, Bcast,
// Reduce, Allreduce, Gather, and Scatter, with binomial-tree reduction and
// user-defined reduction operators over byte buffers — the analogue of the
// custom MPI datatype + MPI_Op the paper builds for HP values.
//
// The substrate is hardened against an adversarial network (see
// internal/faults): every message travels in a checksummed,
// sequence-numbered frame (frame.go) giving corruption detection and
// duplicate suppression on all receive paths; SendTimeout/RecvTimeout
// (reliable.go) add deadlines, acks, and bounded exponential-backoff
// retransmission; a stall watchdog (RunOpts.StallTimeout) converts silent
// deadlocks into errors naming the blocked (src, dst, tag) edges;
// Comm.Abort tears the world down so no rank is left hanging; and
// AllreduceFT (ft.go) survives rank crashes by recovering the lost rank's
// contribution from a checkpoint store.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// mpiFlight is the substrate's flight-recorder ring: rank crashes,
// retransmissions, send timeouts, stalled edges, and FT recoveries land
// here. Always on, written only from fault and failure paths.
var mpiFlight = trace.Subsystem("mpi")

// Op combines two encoded values: inout = combine(inout, in). Ops used with
// Reduce must be commutative and associative over the encoded domain (the
// HP and Hallberg ops are; the float64 op is commutative but only
// approximately associative, which is exactly the paper's problem).
type Op func(inout, in []byte) error

// message is one in-flight frame.
type message struct {
	tag   int
	frame []byte
}

// dedupWindow bounds the per-mailbox set of remembered sequence numbers.
// Because a sender retransmits a reliable message before issuing the next
// one, duplicates arrive close to their originals; a window this large only
// lets a duplicate slip through after 64k intervening messages on the edge.
const dedupWindow = 1 << 16

// mailbox is the unbounded FIFO queue for one (src, dst) pair.
type mailbox struct {
	w        *world
	src, dst int

	mu    sync.Mutex
	cond  *sync.Cond
	queue []message

	// Delivered frame seqs for duplicate suppression, pruned FIFO.
	seen      map[uint64]struct{}
	seenOrder []uint64
}

func newMailbox(w *world, dst, src int) *mailbox {
	m := &mailbox{w: w, src: src, dst: dst, seen: make(map[uint64]struct{})}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(tag int, frame []byte) {
	m.mu.Lock()
	m.queue = append(m.queue, message{tag: tag, frame: frame})
	m.cond.Broadcast()
	m.mu.Unlock()
}

// wake nudges every goroutine blocked in take so it can re-check the
// world's abort/crash state.
func (m *mailbox) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// take removes and returns the earliest frame with the given tag, blocking
// until one arrives, the deadline passes (zero deadline = wait forever),
// the world aborts, or the sending rank is known to have crashed with no
// matching frame left.
//
// Every pass also sweeps the queue for stale retransmits — verified
// ack-wanted frames whose seq was already delivered, parked under a tag
// nobody is receiving anymore because the consumer moved on. Their seqs are
// returned in stale (possibly alongside a nil frame and nil error) so the
// caller can re-ack them; without this, one lost ack would pin the sender
// in its retransmission loop until its full deadline expired.
func (m *mailbox) take(tag int, deadline time.Time) (frame []byte, stale []uint64, err error) {
	w := m.w
	if w.watching() {
		key := blockKey{src: m.src, dst: m.dst, tag: tag}
		w.noteBlocked(key)
		defer w.noteUnblocked(key)
	}
	if !deadline.IsZero() {
		if d := time.Until(deadline); d > 0 {
			timer := time.AfterFunc(d, m.wake)
			defer timer.Stop()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if err := w.abortErr(); err != nil {
			return nil, nil, err
		}
		stale = m.sweepStaleLocked()
		for i, msg := range m.queue {
			if msg.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg.frame, stale, nil
			}
		}
		if len(stale) > 0 {
			return nil, stale, nil // let the caller ack, then come back
		}
		if w.isCrashed(m.src) {
			return nil, nil, &PeerCrashedError{Rank: m.src, Dst: m.dst, Tag: tag}
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, nil, &TimeoutError{Src: m.src, Dst: m.dst, Tag: tag, Op: "recv"}
		}
		m.cond.Wait()
	}
}

// sweepStaleLocked removes queued frames that are checksum-valid, ack-wanted
// retransmits of already-delivered seqs and returns those seqs. Requires
// m.mu. Frames whose seq has not been delivered yet stay queued whatever
// their tag: they belong to a receive that has not happened.
func (m *mailbox) sweepStaleLocked() []uint64 {
	var stale []uint64
	kept := m.queue[:0]
	for _, msg := range m.queue {
		if seq, flags, _, _, err := decodeFrame(msg.frame); err == nil && flags&flagAckWanted != 0 {
			if _, delivered := m.seen[seq]; delivered {
				stale = append(stale, seq)
				mDupSuppressed.Inc()
				continue
			}
		}
		kept = append(kept, msg)
	}
	m.queue = kept
	return stale
}

// delivered reports whether seq has already been taken by the receiver.
// The reliable sender consults it between retransmissions: when the ack for
// the final message of an exchange is lost, no future receive on the edge
// exists to re-ack the retransmits, and the receiver-side delivery record is
// the only witness that the exchange in fact completed. (A real MPI would
// get the equivalent from its transport's completion semantics; in-process,
// the mailbox IS the transport.)
func (m *mailbox) delivered(seq uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.seen[seq]
	return ok
}

// firstDelivery records seq as delivered and reports whether this is the
// first time it has been seen on this edge.
func (m *mailbox) firstDelivery(seq uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.seen[seq]; dup {
		return false
	}
	m.seen[seq] = struct{}{}
	m.seenOrder = append(m.seenOrder, seq)
	if len(m.seenOrder) > dedupWindow {
		delete(m.seen, m.seenOrder[0])
		m.seenOrder = m.seenOrder[1:]
	}
	return true
}

// world is the shared state of one Run invocation (or one Split group).
type world struct {
	size  int
	boxes [][]*mailbox // boxes[dst][src]
	seqs  [][]atomic.Uint64

	inject  *faults.Injector
	delayWG sync.WaitGroup // in-flight fault-delayed deliveries

	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortWhy error

	crashed []atomic.Bool

	watch     atomic.Bool
	blockedMu sync.Mutex
	blocked   map[blockKey]time.Time

	splitMu sync.Mutex
	split   *splitState
}

// newWorld allocates the mailbox matrix for size ranks.
func newWorld(size int) *world {
	w := &world{
		size:    size,
		boxes:   make([][]*mailbox, size),
		seqs:    make([][]atomic.Uint64, size),
		crashed: make([]atomic.Bool, size),
		blocked: make(map[blockKey]time.Time),
	}
	for dst := range w.boxes {
		w.boxes[dst] = make([]*mailbox, size)
		w.seqs[dst] = make([]atomic.Uint64, size)
		for src := range w.boxes[dst] {
			w.boxes[dst][src] = newMailbox(w, dst, src)
		}
	}
	return w
}

// errWorldClosed is the teardown cause RunWith uses to release straggler
// receives (an Irecv nobody matched) once every rank has returned. It is
// bookkeeping, not a failure, so it does not count as an abort.
var errWorldClosed = errors.New("mpi: world closed")

// abort poisons the world: blocked and future operations on every rank
// fail with err. Only the first cause is retained.
func (w *world) abort(err error) {
	w.abortMu.Lock()
	first := w.abortWhy == nil
	if first {
		w.abortWhy = err
		w.aborted.Store(true)
		if !errors.Is(err, errWorldClosed) {
			mAborts.Inc()
		}
	}
	w.abortMu.Unlock()
	if !first {
		return
	}
	for _, row := range w.boxes {
		for _, m := range row {
			m.wake()
		}
	}
	w.splitMu.Lock()
	if s := w.split; s != nil {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	w.splitMu.Unlock()
}

// abortErr returns the abort cause, or nil while the world is healthy.
func (w *world) abortErr() error {
	if !w.aborted.Load() {
		return nil
	}
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortWhy
}

// noteCrashed marks rank dead and wakes every receive blocked on it, so
// peers observe a PeerCrashedError instead of hanging.
func (w *world) noteCrashed(rank int) {
	if w.crashed[rank].Swap(true) {
		return
	}
	mCrashesObserved.Inc()
	mpiFlight.Event("rank-crash", trace.Int("rank", int64(rank)))
	trace.TripDump("crash", fmt.Sprintf("mpi: rank %d crashed (injected fault)", rank))
	for dst := range w.boxes {
		w.boxes[dst][rank].wake()
	}
}

func (w *world) isCrashed(rank int) bool {
	return rank >= 0 && rank < w.size && w.crashed[rank].Load()
}

// Comm is a rank's communicator handle. A Comm is owned by one goroutine
// and must not be shared (Irecv's completion goroutine is the one sanctioned
// exception).
type Comm struct {
	rank    int
	w       *world
	ftRound int           // AllreduceFT invocation counter, for collision-free tags
	tctx    trace.Context // current trace context, stamped into frame headers
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// SetTraceContext installs ctx as the communicator's current trace context:
// subsequent sends stamp it into their frame headers (so receivers parent
// their recv spans under it) and collectives parent their spans under it.
// It returns the previous context; the Comm is single-goroutine-owned, so
// no synchronization is involved.
func (c *Comm) SetTraceContext(ctx trace.Context) trace.Context {
	prev := c.tctx
	c.tctx = ctx
	return prev
}

// TraceContext returns the communicator's current trace context (invalid
// when untraced).
func (c *Comm) TraceContext() trace.Context { return c.tctx }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Crashed reports whether rank is known to have crashed (via an injected
// fault) in this world.
func (c *Comm) Crashed(rank int) bool { return c.w.isCrashed(rank) }

// Abort tears down the world: every rank's pending and future operations
// fail with an *AbortError naming this rank and wrapping cause. It is the
// escape hatch a rank uses when it cannot continue, so its peers fail fast
// instead of deadlocking.
func (c *Comm) Abort(cause error) {
	c.w.abort(&AbortError{Rank: c.rank, Cause: cause})
}

// Internal tag space: user tags must be >= 0.
const (
	tagBarrier = -1 - iota
	tagBcast
	tagReduce
	tagGather
	tagScatter
)

// crashPanic is the panic value an injected rank crash unwinds with.
type crashPanic struct{ rank int }

// RunOpts configures a world's robustness features.
type RunOpts struct {
	// Inject applies a fault plan to every frame sent in the world (nil =
	// fault-free). Sub-worlds created by Split run fault-free.
	Inject *faults.Injector
	// StallTimeout arms the stall watchdog: if any receive stays blocked
	// longer than this, the world aborts with a *StallError naming every
	// blocked (src, dst, tag) edge. Zero disables the watchdog. Set it
	// well above any SendTimeout/RecvTimeout deadlines in use.
	StallTimeout time.Duration
}

// Run executes fn on every rank of a size-rank world concurrently and
// returns the joined errors of all ranks (nil if every rank succeeded).
func Run(size int, fn func(c *Comm) error) error {
	return RunWith(size, RunOpts{}, fn)
}

// RunWith is Run with fault injection and watchdog options. A rank that
// panics aborts the world (peers fail fast rather than deadlock); a rank
// killed by an injected crash fault records a *faults.CrashError without
// aborting, leaving its peers to recover (see AllreduceFT).
func RunWith(size int, opts RunOpts, fn func(c *Comm) error) error {
	if size < 1 {
		return fmt.Errorf("mpi: world size %d", size)
	}
	w := newWorld(size)
	w.inject = opts.Inject
	stopWatchdog := func() {}
	if opts.StallTimeout > 0 {
		stopWatchdog = w.startWatchdog(opts.StallTimeout)
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if cp, ok := p.(crashPanic); ok {
						errs[rank] = &faults.CrashError{Rank: cp.rank}
						return
					}
					err := fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					errs[rank] = err
					w.abort(fmt.Errorf("mpi: world aborted: %w", err))
				}
			}()
			errs[rank] = fn(&Comm{rank: rank, w: w})
		}(r)
	}
	wg.Wait()
	stopWatchdog()
	// Release any receive still parked in the mailboxes — an Irecv whose
	// sender never materialized, for example — so no substrate goroutine
	// outlives the world.
	w.abort(errWorldClosed)
	w.delayWG.Wait()
	return errors.Join(errs...)
}

// Send delivers data to rank dst with the given user tag (tag >= 0). The
// send is eager: it buffers a copy and returns immediately, like an
// MPI_Send of a small message.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("mpi: user tag %d must be >= 0", tag)
	}
	return c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data []byte) error {
	_, frame, err := c.packFrame(dst, data, 0, c.tctx)
	if err != nil {
		return err
	}
	return c.deliver(dst, tag, frame)
}

// packFrame assigns the next sequence number on the (rank, dst) edge and
// encodes data into a frame stamped with tctx (invalid = untraced).
// Reliable sends keep the frame so retransmissions reuse the same seq
// (letting the receiver deduplicate) and the same trace context.
func (c *Comm) packFrame(dst int, data []byte, flags byte, tctx trace.Context) (uint64, []byte, error) {
	if dst < 0 || dst >= c.w.size {
		return 0, nil, fmt.Errorf("mpi: send to invalid rank %d (size %d)", dst, c.w.size)
	}
	seq := c.w.seqs[c.rank][dst].Add(1)
	return seq, encodeFrame(seq, flags, tctx, data), nil
}

// deliver pushes one framed message toward dst, applying the world's fault
// plan. The frame's ownership passes to the receiver; retransmissions must
// pass a fresh copy.
func (c *Comm) deliver(dst, tag int, frame []byte) error {
	w := c.w
	if err := w.abortErr(); err != nil {
		return err
	}
	box := w.boxes[dst][c.rank]
	mMessages.Inc()
	mBytes.Add(uint64(len(frame)))
	if inj := w.inject; inj != nil {
		d := inj.OnSend(c.rank, dst, tag, frame)
		if d.Crash {
			w.noteCrashed(c.rank)
			panic(crashPanic{rank: c.rank})
		}
		for _, f := range d.Frames {
			if d.Delay > 0 {
				w.delayWG.Add(1)
				f := f
				time.AfterFunc(d.Delay, func() {
					defer w.delayWG.Done()
					box.put(tag, f)
				})
			} else {
				box.put(tag, f)
			}
		}
		return nil
	}
	box.put(tag, frame)
	return nil
}

// Recv blocks until a message with the given tag arrives from rank src and
// returns its payload. Messages from the same sender are matched in send
// order (MPI's non-overtaking guarantee; fault-injected delays may reorder).
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	if tag < 0 {
		return nil, fmt.Errorf("mpi: user tag %d must be >= 0", tag)
	}
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) ([]byte, error) {
	return c.recvFrame(src, tag, time.Time{})
}

// recvFrame is the single receive path: it takes frames from the (src,
// rank) mailbox until a valid, first-time frame with the tag arrives.
// Corrupt frames (checksum mismatch) are counted and discarded; duplicate
// seqs are counted and suppressed; frames requesting acknowledgement are
// acked — duplicates included, since a duplicate usually means the
// sender's previous ack was lost.
func (c *Comm) recvFrame(src, tag int, deadline time.Time) ([]byte, error) {
	if src < 0 || src >= c.w.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d (size %d)", src, c.w.size)
	}
	var tstart time.Time
	if trace.Enabled() {
		tstart = time.Now()
	}
	box := c.w.boxes[c.rank][src]
	for {
		raw, stale, err := box.take(tag, deadline)
		// Re-ack swept retransmits first: their sender is spinning on them.
		for _, s := range stale {
			c.sendAck(src, s)
		}
		if err != nil {
			return nil, err
		}
		if raw == nil {
			continue
		}
		seq, flags, fctx, payload, derr := decodeFrame(raw)
		if derr != nil {
			mCorruptDetected.Inc()
			continue
		}
		fresh := box.firstDelivery(seq)
		if flags&flagAckWanted != 0 {
			c.sendAck(src, seq)
		}
		if !fresh {
			mDupSuppressed.Inc()
			continue
		}
		if fctx.Valid() {
			// Parent under the SENDER's span, stitching the cross-rank
			// edge into one trace.
			sp := trace.Start(fctx, "mpi.recv")
			sp.Attr(trace.Int("src", int64(src)))
			sp.Attr(trace.Int("dst", int64(c.rank)))
			sp.Attr(trace.Int("tag", int64(tag)))
			sp.Attr(trace.Int("seq", int64(seq)))
			if !tstart.IsZero() {
				sp.Attr(trace.Int("wait_ns", time.Since(tstart).Nanoseconds()))
			}
			sp.End()
		}
		return payload, nil
	}
}

// Barrier blocks until every rank has entered the barrier, using the
// dissemination algorithm (ceil(log2 P) rounds).
func (c *Comm) Barrier() error {
	size := c.w.size
	for dist := 1; dist < size; dist <<= 1 {
		to := (c.rank + dist) % size
		from := (c.rank - dist%size + size) % size
		if err := c.send(to, tagBarrier, nil); err != nil {
			return err
		}
		if _, err := c.recv(from, tagBarrier); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns each rank's copy. Non-root ranks pass data = nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	size := c.w.size
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: bcast root %d", root)
	}
	vrank := (c.rank - root + size) % size
	// Receive once from the parent (unless root)...
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % size
			var err error
			data, err = c.recv(parent, tagBcast)
			if err != nil {
				return nil, err
			}
			break
		}
		mask <<= 1
	}
	// ...then forward to children below the split point.
	mask >>= 1
	for mask > 0 {
		if vrank+mask < size {
			child := (vrank + mask + root) % size
			if err := c.send(child, tagBcast, data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// Reduce combines every rank's data with op along a binomial tree rooted at
// root. On root it returns the combined buffer; on other ranks it returns
// nil. The combine order is fixed by the tree, so results are bit-identical
// across runs for a fixed world size (and identical for ANY size when op is
// truly associative, as with HP).
func (c *Comm) Reduce(root int, data []byte, op Op) ([]byte, error) {
	size := c.w.size
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: reduce root %d", root)
	}
	vrank := (c.rank - root + size) % size
	acc := make([]byte, len(data))
	copy(acc, data)
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % size
			return nil, c.send(parent, tagReduce, acc)
		}
		partner := vrank + mask
		if partner < size {
			in, err := c.recv((partner+root)%size, tagReduce)
			if err != nil {
				return nil, err
			}
			if err := op(acc, in); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// Allreduce is Reduce to rank 0 followed by Bcast: every rank receives the
// combined buffer.
func (c *Comm) Allreduce(data []byte, op Op) ([]byte, error) {
	done := timeAllreduce()
	acc, err := c.Reduce(0, data, op)
	if err != nil {
		return nil, err
	}
	out, err := c.Bcast(0, acc)
	if err == nil {
		done()
	}
	return out, err
}

// timeAllreduce starts timing one rank's allreduce and returns the
// completion hook; when telemetry is off it is a no-op and reads no clock.
func timeAllreduce() func() {
	if !telemetry.Enabled() {
		return func() {}
	}
	start := time.Now()
	return func() {
		mAllreduce.Inc()
		mAllreduceLatency.ObserveDuration(time.Since(start).Seconds())
	}
}

// Gather collects every rank's buffer at root. On root it returns a slice
// indexed by rank; on other ranks it returns nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	size := c.w.size
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: gather root %d", root)
	}
	if c.rank != root {
		return nil, c.send(root, tagGather, data)
	}
	out := make([][]byte, size)
	cp := make([]byte, len(data))
	copy(cp, data)
	out[root] = cp
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		buf, err := c.recv(r, tagGather)
		if err != nil {
			return nil, err
		}
		out[r] = buf
	}
	return out, nil
}

// Allgather collects every rank's buffer at every rank: each rank returns
// a slice indexed by rank. Implemented as Gather to rank 0 followed by a
// broadcast of the concatenation.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	all, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	// Root flattens with a length prefix per part; everyone unpacks.
	var flat []byte
	if c.rank == 0 {
		for _, part := range all {
			flat = appendUint32(flat, uint32(len(part)))
			flat = append(flat, part...)
		}
	}
	flat, err = c.Bcast(0, flat)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.w.size)
	off := 0
	for r := range out {
		if off+4 > len(flat) {
			return nil, fmt.Errorf("mpi: allgather decode underrun at rank %d", r)
		}
		n := int(uint32(flat[off])<<24 | uint32(flat[off+1])<<16 |
			uint32(flat[off+2])<<8 | uint32(flat[off+3]))
		off += 4
		if off+n > len(flat) {
			return nil, fmt.Errorf("mpi: allgather decode underrun at rank %d", r)
		}
		out[r] = append([]byte(nil), flat[off:off+n]...)
		off += n
	}
	return out, nil
}

func appendUint32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Scatter distributes parts[r] from root to each rank r and returns this
// rank's part. Non-root ranks pass parts = nil.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	size := c.w.size
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: scatter root %d", root)
	}
	if c.rank == root {
		if len(parts) != size {
			return nil, fmt.Errorf("mpi: scatter with %d parts for %d ranks",
				len(parts), size)
		}
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			if err := c.send(r, tagScatter, parts[r]); err != nil {
				return nil, err
			}
		}
		cp := make([]byte, len(parts[root]))
		copy(cp, parts[root])
		return cp, nil
	}
	return c.recv(root, tagScatter)
}

// OpSumFloat64 is the reduction operator for buffers of big-endian float64
// vectors: element-wise floating-point addition (the conventional
// MPI_SUM / MPI_DOUBLE pairing whose non-associativity the paper targets).
func OpSumFloat64(inout, in []byte) error {
	if len(inout) != len(in) || len(inout)%8 != 0 {
		return fmt.Errorf("mpi: float64 op on %d/%d bytes", len(inout), len(in))
	}
	for i := 0; i < len(inout); i += 8 {
		a := math.Float64frombits(binary.BigEndian.Uint64(inout[i:]))
		b := math.Float64frombits(binary.BigEndian.Uint64(in[i:]))
		binary.BigEndian.PutUint64(inout[i:], math.Float64bits(a+b))
	}
	return nil
}

// EncodeFloat64s packs xs into a big-endian byte buffer for OpSumFloat64.
func EncodeFloat64s(xs []float64) []byte { return wire.AppendFloat64s(nil, xs) }

// DecodeFloat64s unpacks a buffer written by EncodeFloat64s.
func DecodeFloat64s(buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mpi: float64 buffer of %d bytes", len(buf))
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}
