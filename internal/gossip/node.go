package gossip

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
)

var flight = trace.Subsystem("gossip")

// Transport delivers one encoded gossip frame to a peer. Implementations
// exist for HTTP (POST to the peer's /gossip endpoint) and for in-process
// mpi worlds (reliable checksummed frames). Send may be called from
// multiple sender workers concurrently; a transport that cannot deliver
// concurrently serializes internally (the mpi transport funnels through a
// single pump goroutine that owns the Comm).
type Transport interface {
	Send(dst Peer, frame []byte) error
}

// Contribution is one accumulator's local partial as reported by the node's
// summation engine: the exact HP envelope plus the counters gossip
// advertises with it. Frames doubles as the entry version — it increases
// exactly when the partial changes.
type Contribution struct {
	Acc    string
	HP     *core.HP
	Adds   uint64
	Frames uint64
}

// Local is the node's view of its own summation engine; nil means the node
// only relays (useful in tests).
type Local interface {
	Contributions() ([]Contribution, error)
}

// Config configures a Node. Zero values get defaults where noted.
type Config struct {
	Self         Peer          // this node's identity (required)
	Epoch        uint64        // lifetime epoch; restarts must bump past the recovered epoch
	Params       core.Params   // cluster HP parameters (required, must validate)
	Seeds        []Peer        // initial peers to join through
	Interval     time.Duration // gossip round period (default 1s)
	Fanout       int           // push and pull targets per round (default 2)
	ViewSize     int           // bounded membership view (default 8)
	SamplerSize  int           // history sampler slots (default 16)
	SuspectAfter int           // consecutive send failures before eviction (default 3)
	QueueLen     int           // outbound frame queue (default 256)
	Senders      int           // sender worker goroutines (default 2)
	Seed         uint64        // PRNG seed for peer selection (default from Self.ID)
	Local        Local         // local contribution source (may be nil)
	Transport    Transport     // frame delivery (required)
	Recovery     []byte        // checkpoint blob to restore, or nil
}

// Node is one gossip cluster member: Brahms membership plus CRDT
// anti-entropy over the contribution store. Create with NewNode, launch the
// round loop with Start, feed inbound frames to Handle, and drain
// everything with Close.
type Node struct {
	cfg Config

	mu     sync.Mutex // guards store, view, samp, rnd, pushed, pulled
	store  *Store
	view   *view
	samp   *sampler
	rnd    *rng.Source
	pushed []Peer // peers that pushed at us since the last round
	pulled []Peer // peers learned from pull replies since the last round

	outMu   sync.RWMutex
	closing bool
	out     chan outFrame

	quit      chan struct{}
	loopWG    sync.WaitGroup // round loop + watchdog
	sendWG    sync.WaitGroup // sender workers
	started   bool
	closeOnce sync.Once

	rounds  atomic.Uint64
	sent    atomic.Uint64
	recv    atomic.Uint64
	applied atomic.Uint64
}

type outFrame struct {
	dst   Peer
	frame []byte
}

// NewNode validates cfg, restores the recovery blob if present, and returns
// a node ready to Start.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self.ID == "" {
		return nil, errors.New("gossip: Config.Self.ID is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("gossip: Config.Transport is required")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("gossip: %w", err)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	if cfg.ViewSize <= 0 {
		cfg.ViewSize = 8
	}
	if cfg.SamplerSize <= 0 {
		cfg.SamplerSize = 16
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.Senders <= 0 {
		cfg.Senders = 2
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = idHash(0x676f73736970, cfg.Self.ID) // deterministic per id
	}
	n := &Node{
		cfg:   cfg,
		store: NewStore(cfg.Params),
		view:  newView(cfg.Self.ID, cfg.ViewSize),
		samp:  newSampler(cfg.SamplerSize, seed),
		rnd:   rng.New(seed),
		out:   make(chan outFrame, cfg.QueueLen),
		quit:  make(chan struct{}),
	}
	if cfg.Recovery != nil {
		epoch, err := n.store.RestoreCheckpoint(cfg.Recovery)
		if err != nil {
			return nil, err
		}
		if cfg.Epoch <= epoch {
			return nil, fmt.Errorf("gossip: configured epoch %d does not bump past recovered epoch %d", cfg.Epoch, epoch)
		}
		flight.Event("gossip-recover",
			trace.Str("node", cfg.Self.ID),
			trace.Int("entries", int64(n.store.Len())),
			trace.Int("old_epoch", int64(epoch)))
	}
	for _, p := range cfg.Seeds {
		if n.isSelf(p) {
			continue
		}
		n.view.learn(p)
		n.samp.observe(p, cfg.Self.ID)
	}
	return n, nil
}

// isSelf reports whether p is this node under either identity: its ID or
// its advertised address. Seed lists name peers by URL before their real
// IDs are known, so a peer's gossip can echo this node back as a
// URL-identified alias; learning that alias would burn a view slot and a
// fanout target on self-sends.
func (n *Node) isSelf(p Peer) bool {
	return p.ID == n.cfg.Self.ID || (p.Addr != "" && p.Addr == n.cfg.Self.Addr)
}

// Self returns the node's identity; Epoch its lifetime epoch.
func (n *Node) Self() Peer    { return n.cfg.Self }
func (n *Node) Epoch() uint64 { return n.cfg.Epoch }

// Start launches the round loop, the sender workers, and the watchdog.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()

	n.loopWG.Add(2)
	go n.loop()
	go n.watchdog()
	n.sendWG.Add(n.cfg.Senders)
	for i := 0; i < n.cfg.Senders; i++ {
		go n.sender()
	}
}

// Close stops the round loop and watchdog, sends best-effort leave frames
// to the current view, then drains and stops the sender workers. It is
// idempotent and safe to call concurrently with Handle.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.quit)
		n.loopWG.Wait()

		n.mu.Lock()
		peers := n.view.snapshot()
		n.mu.Unlock()
		if lf, err := AppendMessage(nil, &Message{Kind: MsgLeave, From: n.cfg.Self, Epoch: n.cfg.Epoch}); err == nil {
			for _, p := range peers {
				select {
				case n.out <- outFrame{dst: p, frame: lf}:
				default:
				}
			}
		}

		n.outMu.Lock()
		n.closing = true
		close(n.out)
		n.outMu.Unlock()
		n.sendWG.Wait()
	})
}

// Stats is a point-in-time snapshot of the node's gossip activity.
type Stats struct {
	Rounds   uint64
	Sent     uint64
	Received uint64
	Applied  uint64
	View     int
	StoreLen int
}

// Stats returns the node's counters; tests and benchmarks use it to report
// frames/sec and rounds-to-convergence without relying on the global
// telemetry registry.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	view, entries := n.view.size(), n.store.Len()
	n.mu.Unlock()
	return Stats{
		Rounds:   n.rounds.Load(),
		Sent:     n.sent.Load(),
		Received: n.recv.Load(),
		Applied:  n.applied.Load(),
		View:     view,
		StoreLen: entries,
	}
}

// Peers returns the current membership view in deterministic order.
func (n *Node) Peers() []Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.snapshot()
}

// Accs lists the accumulators with contributions, local state included.
func (n *Node) Accs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.refreshLocked()
	return n.store.Accs()
}

// ClusterRead merges every known contribution for acc in fixed sorted-key
// order and returns the cluster total with its SHA-256 convergence digest.
// The node's own latest partial is folded in first, so a read always
// reflects local ingest even before the next round gossips it.
func (n *Node) ClusterRead(acc string) (ClusterInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.refreshLocked()
	mClusterMerges.Inc()
	return n.store.ClusterSum(acc)
}

// Checkpoint serializes the contribution store (own contributions
// refreshed) plus the node's epoch for a CheckpointStore snapshot.
func (n *Node) Checkpoint() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.refreshLocked()
	return n.store.Checkpoint(n.cfg.Epoch)
}

// NoteUnreachable records a delivery failure for p: suspicion accrues and
// crossing the threshold evicts the peer from both the view and the history
// sampler. Transports with asynchronous failure detection (the mpi pump)
// call this; the sender workers call it for synchronous transports.
func (n *Node) NoteUnreachable(p Peer) {
	mSendFailures.Inc()
	n.mu.Lock()
	evicted := n.view.miss(p.ID, n.cfg.SuspectAfter)
	if evicted {
		n.samp.invalidate(p.ID)
	}
	n.mu.Unlock()
	if evicted {
		mSuspected.Inc()
		flight.Event("gossip-suspect", trace.Str("peer", p.ID))
	}
}

// refreshLocked folds the local engine's current partials into the store
// under the node's own (id, epoch) keys. Caller holds n.mu.
func (n *Node) refreshLocked() {
	if n.cfg.Local == nil {
		return
	}
	cs, err := n.cfg.Local.Contributions()
	if err != nil {
		flight.Event("gossip-local-error", trace.Str("error", err.Error()))
		return
	}
	for _, c := range cs {
		if _, err := n.store.PutOwn(c.Acc, n.cfg.Self.ID, n.cfg.Epoch, c.HP, c.Adds, c.Frames); err != nil {
			flight.Event("gossip-local-error", trace.Str("error", err.Error()))
		}
	}
}

func (n *Node) loop() {
	defer n.loopWG.Done()
	n.round() // join immediately: push/pull at the seeds before the first tick
	t := time.NewTicker(n.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-t.C:
			n.round()
		}
	}
}

// round is one Brahms push/pull round: refresh own contributions, rebuild
// the view from last round's buffered pushes and pulls, then push (self +
// view sample + digests) and pull (digests) at independently sampled
// fanout targets. Rounds never block on the network — frames go through
// the bounded outbound queue.
func (n *Node) round() {
	start := time.Now()
	span := trace.StartRoot("gossip.round")

	n.mu.Lock()
	n.refreshLocked()
	digests := n.store.Digests()
	if len(digests) > MaxDigests {
		digests = digests[:MaxDigests]
	}
	pushed, pulled := n.pushed, n.pulled
	n.pushed, n.pulled = nil, nil
	n.view.rebuild(pushed, pulled, n.samp, n.rnd)
	mViewSize.Set(int64(n.view.size()))
	pushTargets := n.targetsLocked()
	pullTargets := n.targetsLocked()
	viewSample := n.view.sample(MaxViewEntries-1, n.rnd)
	n.mu.Unlock()

	tctx := span.Context()
	for _, p := range pushTargets {
		n.send(p, &Message{Kind: MsgPush, From: n.cfg.Self, Epoch: n.cfg.Epoch,
			Trace: tctx, View: viewSample, Digests: digests})
	}
	for _, p := range pullTargets {
		n.send(p, &Message{Kind: MsgPullReq, From: n.cfg.Self, Epoch: n.cfg.Epoch,
			Trace: tctx, Digests: digests})
	}

	r := n.rounds.Add(1)
	mRounds.Inc()
	mRoundDur.Observe(time.Since(start).Seconds())
	span.Attr(trace.Int("round", int64(r)))
	span.Attr(trace.Int("view", int64(len(viewSample))))
	span.Attr(trace.Int("digests", int64(len(digests))))
	span.Attr(trace.Int("push_targets", int64(len(pushTargets))))
	span.End()
}

// targetsLocked samples fanout round targets from the view, falling back to
// the configured seeds while the view is still empty (join). Caller holds
// n.mu.
func (n *Node) targetsLocked() []Peer {
	if n.view.size() == 0 {
		return dedupPeers(append([]Peer(nil), n.cfg.Seeds...), n.cfg.Self.ID)
	}
	return n.view.sample(n.cfg.Fanout, n.rnd)
}

// Handle decodes and processes inbound gossip frames: one, or a stream of
// concatenated ones (an HTTP POST body may batch several), stopping at the
// first undecodable one. It is safe to call from any goroutine, including
// after Close (replies are silently dropped then).
func (n *Node) Handle(data []byte) error {
	for len(data) > 0 {
		m, used, err := DecodeMessage(data)
		if err != nil {
			mBadFrames.Inc()
			flight.Event("gossip-bad-frame", trace.Str("error", err.Error()))
			return err
		}
		n.handleMsg(m)
		data = data[used:]
	}
	return nil
}

func (n *Node) handleMsg(m *Message) {
	span := trace.Start(m.Trace, "gossip.handle")
	defer span.End()
	span.Attr(trace.Str("kind", string(m.Kind)))
	span.Attr(trace.Str("from", m.From.ID))
	mRecv.Inc()
	n.recv.Add(1)

	n.mu.Lock()
	if m.Kind == MsgLeave {
		n.view.remove(m.From.ID)
		n.samp.invalidate(m.From.ID)
		n.mu.Unlock()
		return
	}
	if !n.isSelf(m.From) {
		n.view.learn(m.From)
		n.samp.observe(m.From, n.cfg.Self.ID)
	}
	for _, p := range m.View {
		if !n.isSelf(p) {
			n.samp.observe(p, n.cfg.Self.ID)
		}
	}
	switch m.Kind {
	case MsgPush:
		if !n.isSelf(m.From) {
			n.pushed = append(n.pushed, m.From)
		}
	case MsgPullRep:
		for _, p := range m.View {
			if !n.isSelf(p) {
				n.pulled = append(n.pulled, p)
			}
		}
	}

	var applied, equivocations, rejected int
	for _, e := range m.Entries {
		ok, err := n.store.Put(e)
		switch {
		case errors.Is(err, ErrEquivocation):
			equivocations++
		case err != nil:
			rejected++
		case ok:
			applied++
		}
	}

	// Anti-entropy: kinds that carry a digest summary get a delta
	// computed against it. A push from an empty store (a fresh joiner)
	// legitimately ships everything we have.
	var ship []Entry
	var want []Digest
	var mismatches int
	switch m.Kind {
	case MsgPush, MsgPullReq, MsgPullRep:
		ship, want, mismatches = n.store.Delta(m.Digests)
	}
	var myDigests []Digest
	var viewSample []Peer
	if m.Kind == MsgPullReq {
		myDigests = n.store.Digests()
		if len(myDigests) > MaxDigests {
			myDigests = myDigests[:MaxDigests]
		}
		viewSample = n.view.sample(MaxViewEntries-1, n.rnd)
	}
	n.mu.Unlock()

	if applied > 0 {
		mEntriesApplied.Add(uint64(applied))
		n.applied.Add(uint64(applied))
	}
	if equivocations > 0 {
		mEquivocations.Add(uint64(equivocations))
		flight.Event("gossip-equivocation",
			trace.Str("from", m.From.ID), trace.Int("count", int64(equivocations)))
	}
	if rejected > 0 {
		mBadFrames.Add(uint64(rejected))
	}
	if mismatches > 0 {
		mDigestMismatch.Add(uint64(mismatches))
	}
	span.Attr(trace.Int("entries", int64(len(m.Entries))))
	span.Attr(trace.Int("applied", int64(applied)))
	span.Attr(trace.Int("mismatches", int64(mismatches)))

	tctx := span.Context()
	reply := func(kind byte, view []Peer, digests []Digest, entries []Entry) {
		n.send(m.From, &Message{Kind: kind, From: n.cfg.Self, Epoch: n.cfg.Epoch,
			Trace: tctx, View: view, Digests: digests, Entries: entries})
	}
	switch m.Kind {
	case MsgPush:
		if len(ship) > 0 {
			reply(MsgDelta, nil, nil, ship)
		}
		if len(want) > 0 {
			reply(MsgPullReq, nil, n.digestsSnapshot(), nil)
		}
	case MsgPullReq:
		reply(MsgPullRep, viewSample, myDigests, ship)
	case MsgPullRep:
		if len(want) > 0 {
			reply(MsgPullReq, nil, n.digestsSnapshot(), nil)
		}
	}
}

func (n *Node) digestsSnapshot() []Digest {
	n.mu.Lock()
	defer n.mu.Unlock()
	ds := n.store.Digests()
	if len(ds) > MaxDigests {
		ds = ds[:MaxDigests]
	}
	return ds
}

// send encodes m and enqueues it for the sender workers; a full queue drops
// the frame (the next round repairs any loss).
func (n *Node) send(dst Peer, m *Message) {
	frame, err := AppendMessage(nil, m)
	if err != nil {
		flight.Event("gossip-encode-error", trace.Str("error", err.Error()))
		return
	}
	n.outMu.RLock()
	defer n.outMu.RUnlock()
	if n.closing {
		return
	}
	select {
	case n.out <- outFrame{dst: dst, frame: frame}:
	default:
		mOutboundDropped.Inc()
	}
}

func (n *Node) sender() {
	defer n.sendWG.Done()
	for f := range n.out {
		if err := n.cfg.Transport.Send(f.dst, f.frame); err != nil {
			n.NoteUnreachable(f.dst)
			continue
		}
		n.sent.Add(1)
		mSent.Inc()
	}
}

// watchdog flags a wedged round loop: if no round completes across four
// intervals the flight recorder and telemetry record a stall.
func (n *Node) watchdog() {
	defer n.loopWG.Done()
	iv := 4 * n.cfg.Interval
	if iv < 500*time.Millisecond {
		iv = 500 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	last := n.rounds.Load()
	for {
		select {
		case <-n.quit:
			return
		case <-t.C:
			cur := n.rounds.Load()
			if cur == last {
				mStalls.Inc()
				flight.Event("gossip-stall", trace.Int("rounds", int64(cur)))
			}
			last = cur
		}
	}
}
