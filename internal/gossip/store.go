package gossip

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
)

// entryKey is a contribution's identity: one accumulator name, one origin
// node, one epoch of that node's life. Only the owner ever writes a key
// (with a monotone version), which is what makes the map a join-semilattice
// despite HP addition being non-idempotent.
type entryKey struct {
	acc   string
	node  string
	epoch uint64
}

// Store errors.
var (
	// ErrEquivocation marks two envelopes with the same (key, version) but
	// different bytes — an owner violating the monotone-version contract
	// (or a corrupt peer). The store keeps its existing entry.
	ErrEquivocation = errors.New("gossip: equivocating contribution (same version, different envelope)")
	// ErrParams marks an entry whose HP envelope disagrees with the
	// cluster's configured (N, k) parameters.
	ErrParams = errors.New("gossip: contribution parameters mismatch cluster parameters")
	// ErrBadCheckpoint marks an unparseable recovery blob.
	ErrBadCheckpoint = errors.New("gossip: invalid checkpoint blob")
)

// Store is the replicated state: a grow-only map of contributions. Join
// rule per key: keep the higher version; equal versions must carry
// identical bytes. Every mutation validates the envelope decodes to an HP
// partial with the cluster parameters, so junk can never reach a merge.
type Store struct {
	params  core.Params
	entries map[entryKey]Entry // Env slices are owned by the store
}

// NewStore returns an empty contribution store for cluster parameters p.
func NewStore(p core.Params) *Store {
	return &Store{params: p, entries: make(map[entryKey]Entry)}
}

// Params returns the cluster HP parameters the store enforces.
func (s *Store) Params() core.Params { return s.params }

// Len returns the number of contributions held.
func (s *Store) Len() int { return len(s.entries) }

// decodeEnv unwraps one server FrameHP hand-off envelope and checks its
// parameters against the cluster's. The envelope must be exactly one frame:
// trailing bytes would make two different byte strings carry the same
// partial, defeating the equivocation check.
func (s *Store) decodeEnv(env []byte) (*core.HP, error) {
	f, n, err := wire.Split(env, &server.IngestFrames, MaxFramePayload)
	switch {
	case err != nil:
		return nil, fmt.Errorf("gossip: bad contribution envelope: %w", err)
	case f.Type != server.FrameHP:
		return nil, fmt.Errorf("gossip: contribution envelope is frame type %q, want %q", f.Type, server.FrameHP)
	case n != len(env):
		return nil, fmt.Errorf("gossip: bad contribution envelope: %d trailing bytes", len(env)-n)
	}
	var h core.HP
	if err := h.UnmarshalBinary(f.Payload); err != nil {
		return nil, fmt.Errorf("gossip: bad contribution envelope: %w", err)
	}
	if h.Params() != s.params {
		return nil, fmt.Errorf("%w: got %+v, want %+v", ErrParams, h.Params(), s.params)
	}
	return &h, nil
}

// Put joins one remote entry into the map. It returns applied=true when the
// entry replaced (or created) local state. Equal-version envelopes that
// differ byte-for-byte return ErrEquivocation and leave the store
// unchanged; stale or identical entries are a silent no-op.
func (s *Store) Put(e Entry) (applied bool, err error) {
	if _, err := s.decodeEnv(e.Env); err != nil {
		return false, err
	}
	k := e.key()
	cur, ok := s.entries[k]
	if ok {
		if e.Version < cur.Version {
			return false, nil
		}
		if e.Version == cur.Version {
			if bytes.Equal(e.Env, cur.Env) && e.Adds == cur.Adds && e.Frames == cur.Frames {
				return false, nil
			}
			return false, fmt.Errorf("%w: %s/%s@%d v%d", ErrEquivocation, e.Acc, e.Node, e.Epoch, e.Version)
		}
	}
	e.Env = append([]byte(nil), e.Env...)
	s.entries[k] = e
	return true, nil
}

// PutOwn records this node's current partial for one accumulator. The
// version is the owner's frame count: it increases exactly when the partial
// changes, so (key, version) names one unique byte string forever.
func (s *Store) PutOwn(acc, node string, epoch uint64, h *core.HP, adds, frames uint64) (changed bool, err error) {
	if h.Params() != s.params {
		return false, fmt.Errorf("%w: got %+v, want %+v", ErrParams, h.Params(), s.params)
	}
	k := entryKey{acc: acc, node: node, epoch: epoch}
	if cur, ok := s.entries[k]; ok && cur.Version >= frames {
		return false, nil
	}
	env, err := server.AppendHPFrame(nil, h)
	if err != nil {
		return false, err
	}
	s.entries[k] = Entry{
		Acc: acc, Node: node, Epoch: epoch,
		Version: frames, Adds: adds, Frames: frames, Env: env,
	}
	return true, nil
}

// Digests returns the anti-entropy summary: one Digest per contribution, in
// deterministic sorted-key order, each carrying the truncated SHA-256 of
// the envelope.
func (s *Store) Digests() []Digest {
	out := make([]Digest, 0, len(s.entries))
	for _, e := range s.entries {
		sum := sha256.Sum256(e.Env)
		d := Digest{Acc: e.Acc, Node: e.Node, Epoch: e.Epoch, Version: e.Version}
		copy(d.Sum[:], sum[:8])
		out = append(out, d)
	}
	sortDigests(out)
	return out
}

func sortDigests(ds []Digest) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := &ds[i], &ds[j]
		if a.Acc != b.Acc {
			return a.Acc < b.Acc
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Epoch < b.Epoch
	})
}

// Delta compares a peer's digest summary against local state. It returns
// the entries the peer is missing or stale on (ship, capped at MaxEntries —
// the next round repairs the remainder), the digests naming state the peer
// has that is newer than ours (want — triggers a pull request), and the
// number of keys where the summaries disagreed (mismatches, the
// digest-mismatch telemetry signal; it also counts same-version digests
// whose truncated hashes differ, i.e. suspected equivocation).
func (s *Store) Delta(theirs []Digest) (ship []Entry, want []Digest, mismatches int) {
	remote := make(map[entryKey]Digest, len(theirs))
	for _, d := range theirs {
		remote[entryKey{acc: d.Acc, node: d.Node, epoch: d.Epoch}] = d
	}
	var keys []entryKey
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	// Byte budget keeps a delta inside one frame even with large envelopes;
	// whatever does not fit is repaired by the next round's digests.
	const maxShipBytes = 1 << 19
	shipBytes := 0
	for _, k := range keys {
		e := s.entries[k]
		d, ok := remote[k]
		switch {
		case !ok || d.Version < e.Version:
			mismatches++
			if len(ship) < MaxEntries && shipBytes+len(e.Env) <= maxShipBytes {
				ship = append(ship, e)
				shipBytes += len(e.Env)
			}
		case d.Version == e.Version:
			sum := sha256.Sum256(e.Env)
			if !bytes.Equal(d.Sum[:], sum[:8]) {
				mismatches++ // equivocation suspicion; keep ours, surface via telemetry
			}
		default: // d.Version > e.Version: they are ahead
			mismatches++
			if len(want) < MaxDigests {
				want = append(want, d)
			}
		}
		delete(remote, k)
	}
	// Keys only the peer has.
	for _, d := range theirs {
		if _, ok := remote[entryKey{acc: d.Acc, node: d.Node, epoch: d.Epoch}]; ok {
			mismatches++
			if len(want) < MaxDigests {
				want = append(want, d)
			}
		}
	}
	return ship, want, mismatches
}

func lessKey(a, b entryKey) bool {
	if a.acc != b.acc {
		return a.acc < b.acc
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.epoch < b.epoch
}

// Accs returns the accumulator names with at least one contribution,
// sorted.
func (s *Store) Accs() []string {
	seen := make(map[string]bool)
	for k := range s.entries {
		seen[k.acc] = true
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// ClusterInfo is one merged cluster read: the fixed-order join of every
// contribution for one accumulator. Digest is the hex SHA-256 of the merged
// canonical envelope — two nodes have converged on an accumulator iff their
// Digests are equal, and exactness makes that equality bit-for-bit rather
// than approximate.
type ClusterInfo struct {
	Name         string  `json:"name"`
	Sum          float64 `json:"sum"`
	HP           string  `json:"hp"`
	Digest       string  `json:"digest"`
	Adds         uint64  `json:"adds"`
	Frames       uint64  `json:"frames"`
	Contributors int     `json:"contributors"`
	Nodes        int     `json:"nodes"`
	Err          string  `json:"error,omitempty"`
}

// ClusterSum merges every contribution for acc in sorted-key order through
// the engine's checked HP combine. Because HP addition is exact and the
// order is deterministic, every node holding the same contribution map
// returns byte-identical HP text and SHA-256 digest.
func (s *Store) ClusterSum(acc string) (ClusterInfo, error) {
	var keys []entryKey
	nodes := make(map[string]bool)
	for k := range s.entries {
		if k.acc == acc {
			keys = append(keys, k)
			nodes[k.node] = true
		}
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })

	info := ClusterInfo{Name: acc, Contributors: len(keys), Nodes: len(nodes)}
	merged := core.NewAccumulator(s.params)
	for _, k := range keys {
		e := s.entries[k]
		h, err := s.decodeEnv(e.Env)
		if err != nil {
			return info, err
		}
		merged.AddHP(h)
		info.Adds += e.Adds
		info.Frames += e.Frames
	}
	if err := merged.Err(); err != nil {
		info.Err = err.Error()
		return info, err
	}
	env, err := merged.Sum().MarshalBinary()
	if err != nil {
		return info, err
	}
	dg := audit.DigestEnv(env)
	info.Digest = fmt.Sprintf("%x", dg[:])
	text, err := merged.Sum().MarshalText()
	if err != nil {
		return info, err
	}
	info.HP = string(text)
	info.Sum = merged.Float64()
	return info, nil
}

// Checkpoint blob: a wire envelope "HPGC" whose body is the node epoch(8),
// entry count(4) and the entries in their gossip wire encoding. The node's
// epoch rides along so a restart can bump past it.
const (
	checkpointMagic   = "HPGC"
	checkpointVersion = 1
)

// Checkpoint serializes the contribution map plus the owning node's epoch
// into a self-verifying blob for a CheckpointStore.
func (s *Store) Checkpoint(epoch uint64) ([]byte, error) {
	buf := wire.StartEnvelope(nil, checkpointMagic, checkpointVersion)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.entries)))
	var keys []entryKey
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	var err error
	for _, k := range keys {
		e := s.entries[k]
		if buf, err = appendEntry(buf, &e); err != nil {
			return nil, err
		}
	}
	return wire.Seal(buf, 0), nil
}

// RestoreCheckpoint joins a checkpoint blob's entries into the store and
// returns the epoch the blob was taken in. The restart bumps past that
// epoch, freezing the old entries (they keep converging via anti-entropy)
// while new local frames accrue under the new epoch.
func (s *Store) RestoreCheckpoint(data []byte) (epoch uint64, err error) {
	body, err := wire.OpenEnvelope(data, checkpointMagic, checkpointVersion, ErrBadCheckpoint)
	if err != nil {
		return 0, err
	}
	c := wire.NewCursor(body, ErrFrameTrunc, ErrFrameBounds)
	epoch = c.U64()
	count := int(c.U32())
	for i := 0; i < count && c.Err() == nil; i++ {
		if e := readEntry(&c); c.Err() == nil {
			if _, err := s.Put(e); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
			}
		}
	}
	if err := c.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if c.Len() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, c.Len())
	}
	return epoch, nil
}
