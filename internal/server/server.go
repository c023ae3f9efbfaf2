package server

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// flight is the server's flight-recorder ring: backpressure rejections,
// escaped 5xx responses, replica divergence, and snapshot/restore milestones
// land here. Always on, but written only from cold paths.
var flight = trace.Subsystem("server")

// Config tunes a summation Server. The zero value selects the documented
// defaults; New normalizes it.
type Config struct {
	// Params is the default HP format for accumulators created without an
	// explicit format. Defaults to core.Params384.
	Params core.Params
	// Shards is the number of independent partial sums per replica: up to
	// Shards ingests fold into one replica at once. Defaults to GOMAXPROCS;
	// associativity makes the count invisible in the sums, so it only
	// trades fold contention for memory.
	Shards int
	// Replicas is the number of independent replica engines every accepted
	// frame is folded into (n). Defaults to 1 (replication off: every
	// certificate is a single self-vote).
	Replicas int
	// Quorum is the number of byte-identical replica states required to
	// serve a read (k). Defaults to Replicas/2+1 — a strict majority — and
	// is clamped to [1, Replicas].
	Quorum int
	// ReportHook, when non-nil, intercepts each replica's state report (the
	// canonical HP envelope) before certification. It exists so fault
	// injection (faults.ReplicaInjector.OnReport) can make a replica lie,
	// equivocate, or replay stale state without the replica itself being
	// wrong; production servers leave it nil.
	ReportHook func(replica int, env []byte) []byte
	// EnqueueWait is how long an ingest waits for an idle shard of the
	// admission replica before giving up with a busy error (HTTP 429).
	// Defaults to 5ms.
	EnqueueWait time.Duration
	// MaxFramePayload caps a single frame's payload bytes (default
	// MaxFramePayload); MaxRequestBytes caps one request body (default
	// 64 MiB); MaxRequestFrames caps frames per request (default 65536).
	MaxFramePayload  int
	MaxRequestBytes  int64
	MaxRequestFrames int
	// FrameReadTimeout is the per-frame read deadline on streaming ingest:
	// a client that stalls mid-frame longer than this is cut off with 408
	// rather than holding a connection open. Defaults to 10s.
	FrameReadTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses. Defaults
	// to 1s.
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Params == (core.Params{}) {
		c.Params = core.Params384
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Quorum <= 0 {
		c.Quorum = c.Replicas/2 + 1
	}
	if c.Quorum > c.Replicas {
		c.Quorum = c.Replicas
	}
	if c.EnqueueWait <= 0 {
		c.EnqueueWait = 5 * time.Millisecond
	}
	if c.MaxFramePayload <= 0 {
		c.MaxFramePayload = MaxFramePayload
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 64 << 20
	}
	if c.MaxRequestFrames <= 0 {
		c.MaxRequestFrames = 1 << 16
	}
	if c.FrameReadTimeout <= 0 {
		c.FrameReadTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Sentinel errors surfaced by the registry and mapped onto HTTP statuses by
// the handler layer.
var (
	ErrBusy         = errors.New("server: every shard busy")
	ErrGone         = errors.New("server: accumulator deleted")
	ErrNotFound     = errors.New("server: no such accumulator")
	ErrExists       = errors.New("server: accumulator exists with different parameters")
	ErrBadName      = errors.New("server: invalid accumulator name")
	ErrServerClosed = errors.New("server: closed")
	// ErrDiverged fails a certified read closed: the replica states did not
	// agree byte for byte (HTTP 503). The wrapped message names the
	// minority replicas; retrying after the quarantine-and-reseed pass is
	// expected to succeed while a quorum of honest replicas remains.
	ErrDiverged = errors.New("server: replica divergence")
)

// Server is the sharded registry of named accumulators. Create it with New,
// serve it with Handler, and stop it with Close — only after the HTTP layer
// has stopped delivering requests (hpsumd orders http.Server.Shutdown
// before Close; tests must do the same).
type Server struct {
	cfg    Config
	mu     sync.RWMutex
	accs   map[string]*Accumulator
	aud    *auditState // nil: auditing off
	closed bool
}

// New returns an empty server with cfg normalized to its defaults.
func New(cfg Config) *Server {
	return &Server{cfg: cfg.withDefaults(), accs: make(map[string]*Accumulator)}
}

// Config returns the normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// validName reports whether name is acceptable: 1-128 bytes of
// [a-zA-Z0-9._-], so names embed safely in URL paths and snapshot files.
func validName(name string) bool {
	if len(name) == 0 || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// maxLimbs is the widest format (N) whose canonical HP envelope fits one
// audit record entry (audit.MaxEnvLen). Every accumulator's state must be
// persistable as a snapshot and an audit record, and the bound also caps
// the limb vectors a request can make the server allocate per shard and
// replica.
var maxLimbs = (audit.MaxEnvLen - core.MarshaledSize(core.Params{})) / 8

// validFormat checks p and that its state fits the record bound.
func validFormat(p core.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.N > maxLimbs {
		return fmt.Errorf("server: N=%d exceeds %d, the widest format whose state fits one audit record", p.N, maxLimbs)
	}
	return nil
}

// Create registers an accumulator under name with format p (zero Params
// selects the server default). It returns the accumulator and whether it
// was newly created; asking for an existing name with a different format is
// ErrExists. A format wider than maxLimbs is rejected.
func (s *Server) Create(name string, p core.Params) (*Accumulator, bool, error) {
	if !validName(name) {
		return nil, false, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if p == (core.Params{}) {
		p = s.cfg.Params
	}
	if err := validFormat(p); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrServerClosed
	}
	if a, ok := s.accs[name]; ok {
		if a.params != p {
			return nil, false, fmt.Errorf("%w: %q is (N=%d,k=%d), requested (N=%d,k=%d)",
				ErrExists, name, a.params.N, a.params.K, p.N, p.K)
		}
		return a, false, nil
	}
	a := newAccumulator(name, p, s.cfg, s.aud)
	s.accs[name] = a
	mAccumulators.Set(int64(len(s.accs)))
	return a, true, nil
}

// Lookup returns the accumulator registered under name, or nil.
func (s *Server) Lookup(name string) *Accumulator {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.accs[name]
}

// Delete unregisters name and marks its accumulator gone once every
// in-flight ingest into it has finished: later ingests and reads of a
// stale handle fail with ErrGone. It reports whether the name existed.
// Deleting an audited accumulator invalidates the audit trail for that
// name: its journaled frames outlive the state they were folded into.
func (s *Server) Delete(name string) bool {
	s.mu.Lock()
	a, ok := s.accs[name]
	if ok {
		delete(s.accs, name)
		mAccumulators.Set(int64(len(s.accs)))
	}
	s.mu.Unlock()
	if ok {
		a.mu.Lock()
		a.gone = true
		a.mu.Unlock()
	}
	return ok
}

// Names returns the registered accumulator names, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.accs))
	for name := range s.accs {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Close marks the server closed: Create and EnableAudit fail from then
// on. Every acked frame is already folded, so there is nothing to drain;
// the accumulators stay readable for a final Snapshot or AuditRecord.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Info is the JSON description of one accumulator, as served by the read
// endpoints. HP is the canonical MarshalText certificate: two sums are
// bit-identical iff these strings are byte-equal. Cert, when present, is
// the k-of-n agreement certificate the value was served under.
type Info struct {
	Name   string       `json:"name"`
	N      int          `json:"n"`
	K      int          `json:"k"`
	Shards int          `json:"shards,omitempty"`
	Adds   uint64       `json:"adds"`
	Frames uint64       `json:"frames"`
	Sum    float64      `json:"sum"`
	HP     string       `json:"hp"`
	Err    string       `json:"error,omitempty"`
	Cert   *Certificate `json:"cert,omitempty"`
}

// Accumulator is one named accumulator, replicated across cfg.Replicas
// independent engines. Every accepted frame is folded into every active
// replica; reads are certified by comparing the replicas' canonical states
// byte for byte (replica.go). mu is the replication lock: ingest holds it
// shared (frames fold concurrently, each under a shard token), while
// certification, quarantine, reseeding, audit cuts and delete hold it
// exclusively — an exclusive acquisition is therefore a quiescent point
// where no fold is in flight and the set of accepted frames is exact.
type Accumulator struct {
	name   string
	params core.Params
	cfg    Config
	aud    *auditState // nil: auditing off

	mu       sync.RWMutex
	replicas []*replica
	gone     bool // deleted: ingest and reads fail with ErrGone

	// Ingest-Id resume state: id -> frames accepted under that id, so a
	// client retrying a transport-severed POST with the same id and body
	// never double-counts a frame (http.go, client.go).
	resMu      sync.Mutex
	resume     map[string]int
	resumeFIFO []string

	// addBuf holds one idle AddFloats encode buffer (nil while a caller
	// has it); buffers over MaxFramePayload are not kept.
	addBuf atomic.Pointer[[]byte]
}

func newAccumulator(name string, p core.Params, cfg Config, aud *auditState) *Accumulator {
	a := &Accumulator{name: name, params: p, cfg: cfg, aud: aud,
		resume: make(map[string]int)}
	a.replicas = make([]*replica, cfg.Replicas)
	for i := range a.replicas {
		a.replicas[i] = &replica{id: i, eng: newEngine(name, p, cfg)}
	}
	return a
}

// Name returns the accumulator's registry name.
func (a *Accumulator) Name() string { return a.name }

// Params returns the accumulator's HP format.
func (a *Accumulator) Params() core.Params { return a.params }

// active returns the replicas currently serving (not permanently
// quarantined). Caller holds mu (shared or exclusive).
func (a *Accumulator) active() []*replica {
	out := make([]*replica, 0, len(a.replicas))
	for _, r := range a.replicas {
		if r.status == replicaActive {
			out = append(out, r)
		}
	}
	return out
}

// ingest admits one frame, folds it into every active replica in the
// calling goroutine, then journals it; when it returns nil the frame is in
// the sum and nothing of o is retained. The first active replica is the
// admission gate (no shard coming free within EnqueueWait is the 429
// backpressure signal); once admitted there, the frame waits for a shard
// of every other active replica, so an accepted frame is never partially
// replicated. An ingest holds one shard token at a time, so the waits
// cannot deadlock. Runs under the shared replication lock: an exclusive
// acquisition (certify/audit/delete) observes either all of a frame's
// effects or none.
func (a *Accumulator) ingest(o op) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.gone {
		return ErrGone
	}
	admitted := false
	for _, r := range a.replicas {
		if r.status != replicaActive {
			continue
		}
		if err := r.eng.fold(o, admitted); err != nil {
			return err
		}
		admitted = true
	}
	if !admitted {
		return ErrGone
	}
	if a.aud != nil {
		if err := a.aud.journalOp(a.name, o); err != nil {
			// The frame is folded but not journaled — a real durability
			// fault the audit replay will name. Surface it loudly.
			return fmt.Errorf("server: journal: %w", err)
		}
	}
	return nil
}

// AddFloats folds one frame of values into every active replica before it
// returns; the caller keeps the slice. A NaN or ±Inf anywhere rejects the
// whole frame with an error wrapping core.ErrNotFinite, as the HTTP ingest
// path does, before any replica or the journal sees it.
func (a *Accumulator) AddFloats(xs []float64) error { return a.AddFloatsTraced(xs, trace.Context{}) }

// AddFloatsTraced is AddFloats carrying a trace context: the fold becomes
// a child span of tctx. The invalid context costs nothing. The values are
// encoded once into a wire payload, which then takes the ingest path of a
// streamed frame. The encode buffer is cached on the accumulator, so a
// caller adding frame after frame does not allocate.
func (a *Accumulator) AddFloatsTraced(xs []float64, tctx trace.Context) error {
	bp := a.addBuf.Swap(nil)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = wire.AppendFloat64s((*bp)[:0], xs)
	err := checkFloatFrame(*bp)
	if err == nil {
		err = a.ingest(op{payload: *bp, tctx: tctx})
	}
	if cap(*bp) <= MaxFramePayload {
		a.addBuf.Store(bp)
	}
	return err
}

// AddHP folds one HP partial sum (an exact hand-off from another
// reduction). The value must match the accumulator's format.
func (a *Accumulator) AddHP(h *core.HP) error { return a.AddHPTraced(h, trace.Context{}) }

// AddHPTraced is AddHP carrying a trace context for the fold.
func (a *Accumulator) AddHPTraced(h *core.HP, tctx trace.Context) error {
	if h.Params() != a.params {
		return core.ErrParamMismatch
	}
	return a.ingest(op{hp: h, tctx: tctx})
}

// State is the divergence-tolerant read: the agreed state of one agree()
// cut, rendered as Info. Divergent minority replicas are quarantined and
// reseeded as a side effect, but the read itself tolerates divergence as
// long as a quorum agrees — the same cut snapshots, audit records and
// gossip take, which must never persist a lying replica's value but also
// must not wedge a graceful shutdown over one bad replica. Reads served to
// clients go through Certified, which fails closed instead.
func (a *Accumulator) State() (Info, error) {
	st, cert, _, err := a.agree()
	if err != nil {
		return Info{}, err
	}
	return a.infoFrom(st, cert), nil
}

// Certified is the client read path: one agree() cut, served only under a
// full agreement certificate. Any divergence — even with a healthy quorum —
// fails the read closed with ErrDiverged (HTTP 503) while the
// quarantine-and-reseed pass repairs the minority, so a retry is expected
// to succeed.
func (a *Accumulator) Certified() (Info, error) {
	mCertReads.Inc()
	st, cert, divergent, err := a.agree()
	if err != nil {
		return Info{}, err
	}
	if len(divergent) > 0 {
		return Info{}, fmt.Errorf("%w: replicas %v disagreed with the quorum; quarantined and reseeded",
			ErrDiverged, divergent)
	}
	return a.infoFrom(st, cert), nil
}

// infoFrom renders an agreed state as the wire Info.
func (a *Accumulator) infoFrom(st engineState, cert *Certificate) Info {
	txt, err := st.sum.MarshalText()
	if err != nil {
		// MarshalText on an in-format HP cannot fail; keep the read
		// serving rather than inventing an error path.
		txt = []byte("")
	}
	info := Info{
		Name:   a.name,
		N:      a.params.N,
		K:      a.params.K,
		Shards: a.cfg.Shards,
		Adds:   st.adds,
		Frames: st.frames,
		Sum:    st.sum.Float64(),
		HP:     string(txt),
		Cert:   cert,
	}
	if st.err != nil {
		info.Err = st.err.Error()
	}
	return info
}

// Envelope returns the accumulator's current canonical HP partial together
// with its adds and frames counters — the contribution the gossip layer
// replicates across the cluster. It is the agreed state of one agree()
// cut, so a gossiped partial always matches what snapshots and certified
// reads see. The returned HP is a copy the caller owns.
func (a *Accumulator) Envelope() (*core.HP, uint64, uint64, error) {
	st, _, _, err := a.agree()
	if err != nil {
		return nil, 0, 0, err
	}
	return st.sum, st.adds, st.frames, nil
}

// seedRestore installs a restored state into every replica and, when
// auditing is on, journals the hand-off so replay can verify the restored
// state extends the journaled trajectory exactly.
func (a *Accumulator) seedRestore(st engineState) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.replicas {
		if err := r.eng.seed(st); err != nil {
			return err
		}
	}
	if a.aud != nil {
		if err := a.aud.journalSeed(a.name, st); err != nil {
			return fmt.Errorf("server: journal: %w", err)
		}
	}
	return nil
}

// resumeCount returns the frames already accepted under id (0 for unknown
// ids, including the empty id).
func (a *Accumulator) resumeCount(id string) int {
	if id == "" {
		return 0
	}
	a.resMu.Lock()
	defer a.resMu.Unlock()
	return a.resume[id]
}

// noteAccepted records that count frames of id's stream are now accepted.
// The map is bounded: the oldest ids fall off, trading resume coverage for
// memory — a client retrying a stream older than the window double-counts
// nothing, it just loses skip-ahead and gets a certificate mismatch from
// its own bookkeeping instead.
func (a *Accumulator) noteAccepted(id string, count int) {
	if id == "" {
		return
	}
	const maxResumeIDs = 1024
	a.resMu.Lock()
	defer a.resMu.Unlock()
	if _, ok := a.resume[id]; !ok {
		if len(a.resumeFIFO) >= maxResumeIDs {
			oldest := a.resumeFIFO[0]
			a.resumeFIFO = a.resumeFIFO[1:]
			delete(a.resume, oldest)
		}
		a.resumeFIFO = append(a.resumeFIFO, id)
	}
	a.resume[id] = count
}
