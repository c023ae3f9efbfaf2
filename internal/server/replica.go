package server

import (
	"encoding/hex"
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/trace"
)

// Replication model. Every accepted frame is folded into n independent
// engines. Because HP addition is exactly associative and commutative,
// honest replicas fed the same accepted frames hold bit-identical canonical
// sums — there is no tolerance window, no "close enough": a replica either
// matches the quorum byte for byte or it is wrong. Certification exploits
// that binary property: hash each replica's canonical envelope, group by
// digest, and require at least k (quorum) identical votes.
//
// A minority replica is presumed faulty (bit rot, a bad fold, an injected
// lie): it is quarantined and synchronously reseeded from the agreed state
// via the exact HP hand-off, after which an honest replica converges
// byte-identically. A replica that diverges again after a reseed is
// quarantined permanently — it keeps strike state across repairs precisely
// so an equivocating replica cannot oscillate forever. If the active set
// can no longer form a quorum, every read fails closed.

type replicaStatus uint8

const (
	replicaActive      replicaStatus = iota
	replicaQuarantined               // permanent: struck out after a reseed
)

// replica is one engine plus its disciplinary record.
type replica struct {
	id      int
	eng     *engine
	status  replicaStatus
	strikes int
}

// ReplicaShare is one replica's vote in a certificate: the SHA-256 digest
// of its reported canonical HP envelope.
type ReplicaShare struct {
	Replica int    `json:"replica"`
	Digest  string `json:"digest"`
}

// Certificate is the k-of-n agreement a read was served under: every share
// whose digest equals Digest vouched for the returned value. Verify checks
// it against the served HP text client-side.
type Certificate struct {
	Acc    string         `json:"acc"`
	K      int            `json:"k"`
	N      int            `json:"n"`
	Frames uint64         `json:"frames"`
	Adds   uint64         `json:"adds"`
	Digest string         `json:"digest"`
	Shares []ReplicaShare `json:"shares"`
}

// Verify checks the certificate against the served canonical HP text: the
// agreed digest must hash the exact envelope the text decodes to, and at
// least K shares must carry that digest. It returns nil only for a
// certificate that actually vouches for the value in hand.
func (c *Certificate) Verify(hpText string) error {
	var h core.HP
	if err := h.UnmarshalText([]byte(hpText)); err != nil {
		return fmt.Errorf("server: certificate: undecodable hp text: %w", err)
	}
	env, err := h.MarshalBinary()
	if err != nil {
		return err
	}
	d := audit.DigestEnv(env)
	if got := hex.EncodeToString(d[:]); got != c.Digest {
		return fmt.Errorf("server: certificate digest %s does not cover the served value (its digest is %s)", c.Digest, got)
	}
	votes := 0
	for _, sh := range c.Shares {
		if sh.Digest == c.Digest {
			votes++
		}
	}
	if votes < c.K {
		return fmt.Errorf("server: certificate has %d agreeing shares, quorum is %d", votes, c.K)
	}
	return nil
}

// report is one replica's certified flush: its engine state plus the
// (possibly fault-injected) envelope it reported and that envelope's digest.
type report struct {
	r      *replica
	st     engineState
	env    []byte
	digest [audit.HashLen]byte
}

// agree is the certification core and the one cut of an accumulator's
// agreed state: State, Certified, Envelope, audit records and snapshots all
// read through it. It takes a.mu exclusively, which quiesces ingest: every
// accepted frame has been folded into every active replica (and been
// journaled), so honest replicas answer identically.
//
// It reads each active replica's merged state, groups the reports by
// envelope digest, and picks the largest group as the quorum candidate. With a quorum:
// minority replicas are quarantined and reseeded (or struck out), and agree
// returns the agreed state — decoded from the agreed envelope, so the
// served value is the certified bytes by construction, and caller-owned —
// plus the certificate and the minority ids. Without a quorum nothing is
// quarantined (there is no majority to trust) and the error wraps
// ErrDiverged.
func (a *Accumulator) agree() (engineState, *Certificate, []int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gone {
		return engineState{}, nil, nil, ErrGone
	}
	mergeSpan := trace.StartRoot("server.merge")
	mergeSpan.Attr(trace.Str("acc", a.name))
	mergeSpan.Attr(trace.Int("shards", int64(a.cfg.Shards)))
	mergeSpan.Attr(trace.Int("replicas", int64(len(a.replicas))))
	defer mergeSpan.End()

	actives := a.active()
	if len(actives) < a.cfg.Quorum {
		return engineState{}, nil, nil, fmt.Errorf("%w: %d active replicas cannot form a quorum of %d",
			ErrDiverged, len(actives), a.cfg.Quorum)
	}
	reports := make([]report, 0, len(actives))
	for _, r := range actives {
		st := r.eng.state()
		env, err := st.sum.MarshalBinary()
		if err != nil {
			return engineState{}, nil, nil, err
		}
		if a.cfg.ReportHook != nil {
			env = a.cfg.ReportHook(r.id, env)
		}
		reports = append(reports, report{r: r, st: st, env: env, digest: audit.DigestEnv(env)})
	}

	// Largest digest group wins; first-seen order breaks ties, so the
	// outcome is deterministic in replica order.
	counts := make(map[[audit.HashLen]byte]int, len(reports))
	for _, rep := range reports {
		counts[rep.digest]++
	}
	var winner [audit.HashLen]byte
	best := 0
	for _, rep := range reports {
		if n := counts[rep.digest]; n > best {
			best, winner = n, rep.digest
		}
	}

	cert := &Certificate{
		Acc: a.name, K: a.cfg.Quorum, N: len(a.replicas),
		Digest: hex.EncodeToString(winner[:]),
		Shares: make([]ReplicaShare, 0, len(reports)),
	}
	for _, rep := range reports {
		cert.Shares = append(cert.Shares,
			ReplicaShare{Replica: rep.r.id, Digest: hex.EncodeToString(rep.digest[:])})
	}

	if best < a.cfg.Quorum {
		mReplicaDivergence.Inc()
		flight.Event("replica-no-quorum",
			trace.Str("acc", a.name),
			trace.Int("largest_group", int64(best)),
			trace.Int("quorum", int64(a.cfg.Quorum)))
		trace.TripDump("replica-divergence",
			fmt.Sprintf("acc %q: largest agreement group is %d of %d, quorum is %d",
				a.name, best, len(reports), a.cfg.Quorum))
		return engineState{}, nil, nil, fmt.Errorf("%w: largest agreement group is %d of %d replicas, quorum is %d",
			ErrDiverged, best, len(reports), a.cfg.Quorum)
	}

	// The agreed state: counters and sticky error from a majority replica's
	// engine, the value decoded from the agreed envelope itself so the
	// served bytes are exactly what the certificate's digest covers.
	var agreed engineState
	for _, rep := range reports {
		if rep.digest == winner {
			var h core.HP
			if err := h.UnmarshalBinary(rep.env); err != nil {
				return engineState{}, nil, nil, fmt.Errorf("server: agreed envelope undecodable: %w", err)
			}
			agreed = engineState{sum: &h, err: rep.st.err, adds: rep.st.adds, frames: rep.st.frames}
			break
		}
	}
	cert.Frames, cert.Adds = agreed.frames, agreed.adds

	var divergent []int
	for _, rep := range reports {
		if rep.digest != winner {
			divergent = append(divergent, rep.r.id)
			a.punish(rep, agreed, winner)
		}
	}
	return agreed, cert, divergent, nil
}

// punish quarantines a minority replica. First strike: the replica is
// synchronously reseeded from the agreed state (exact HP hand-off), after
// which an honest-but-corrupted replica is byte-identical to the quorum
// again. Second strike: the replica lied again after a repair — it is
// quarantined permanently and no frame is folded into it again. Caller
// holds a.mu exclusively.
func (a *Accumulator) punish(rep report, agreed engineState, winner [audit.HashLen]byte) {
	r := rep.r
	r.strikes++
	mReplicaDivergence.Inc()
	flight.Event("replica-divergence",
		trace.Str("acc", a.name),
		trace.Int("replica", int64(r.id)),
		trace.Int("strike", int64(r.strikes)),
		trace.Str("agreed_digest", hex.EncodeToString(winner[:8])),
		trace.Str("minority_digest", hex.EncodeToString(rep.digest[:8])))
	trace.TripDump("replica-divergence",
		fmt.Sprintf("acc %q: replica %d diverged from the quorum (strike %d): agreed %x, reported %x",
			a.name, r.id, r.strikes, winner[:8], rep.digest[:8]))
	if r.strikes < 2 {
		// Seeding a fresh, empty engine cannot fail structurally; if it
		// somehow does, strike the replica out rather than serve from it.
		fresh := newEngine(a.name, a.params, a.cfg)
		if fresh.seed(agreed) == nil {
			r.eng = fresh
			mReseeds.Inc()
			return
		}
	}
	r.status = replicaQuarantined
	mQuarantines.Inc()
}
