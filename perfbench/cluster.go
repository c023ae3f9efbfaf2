package main

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/server"
)

// cluster-burst: 3 in-process nodes, each a server.Server plus a
// gossip.Node (ServerLocal, HTTPTransport, its own loopback listener),
// 50 ms rounds, fanout 2. Each burst writes one small frame to every
// accumulator on every node; then the benchmark polls Node.ClusterRead
// until every node serves the oracle total with one digest. 32
// accumulators keep a burst well below the catch-up cliff (README.md).
const (
	clusterNodes    = 3
	clusterAccs     = 32
	clusterFrame    = 16
	clusterPool     = 1024 // distinct pre-generated frames, reused round robin
	clusterInterval = 50 * time.Millisecond
	clusterFanout   = 2
	clusterTimeout  = 30 * time.Second // a burst that has not converged by then fails
	// clusterPoll spaces the convergence polls. Each ClusterRead refreshes
	// every local accumulator, so polling faster takes CPU from the rounds
	// being measured.
	clusterPoll = 25 * time.Millisecond
)

var clusterParams = core.Params384

type clusterNode struct {
	svc  *service
	node *gossip.Node
	http *gossip.HTTPTransport
	tr   *spanGossipTransport
}

type clusterEnv struct {
	nodes  []*clusterNode
	accs   []string
	pool   [][]float64
	oracle []*core.SuperAccumulator
	next   int // next pool frame
}

func setupCluster(o opts) (*clusterEnv, error) {
	r := rng.New(o.seed)
	env := &clusterEnv{}
	for i := 0; i < clusterPool; i++ {
		env.pool = append(env.pool, rng.UniformSet(r, clusterFrame, -0.5, 0.5))
	}
	for a := 0; a < clusterAccs; a++ {
		env.accs = append(env.accs, fmt.Sprintf("acc%03d", a))
		env.oracle = append(env.oracle, core.NewSuper(clusterParams))
	}
	// Listeners first: a node's identity is its bound address, so the
	// gossip routes go in through a holder that 503s until the node exists,
	// as hpsumd mounts them.
	holders := make([]*atomic.Pointer[gossip.Node], clusterNodes)
	for i := range holders {
		h := &atomic.Pointer[gossip.Node]{}
		holders[i] = h
		mount := func(mux *http.ServeMux, rec *atomic.Pointer[recorder]) {
			gh := spanHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := h.Load()
				if n == nil {
					http.Error(w, "gossip: node starting", http.StatusServiceUnavailable)
					return
				}
				n.Handler().ServeHTTP(w, r)
			}), rec)
			mux.Handle("/gossip", gh)
			mux.Handle("/gossip/", gh)
		}
		svc, err := startService(server.New(server.Config{}), mount)
		if err != nil {
			env.close()
			return nil, err
		}
		env.nodes = append(env.nodes, &clusterNode{svc: svc})
	}
	self := func(i int) gossip.Peer {
		return gossip.Peer{ID: fmt.Sprintf("node%d", i), Addr: env.nodes[i].svc.base}
	}
	for i, cn := range env.nodes {
		var seeds []gossip.Peer
		if i > 0 {
			seeds = []gossip.Peer{self(0)}
		}
		cn.http = gossip.NewHTTPTransport(0)
		cn.tr = &spanGossipTransport{base: cn.http, slot: &cn.svc.rec}
		n, err := gossip.NewNode(gossip.Config{
			Self:      self(i),
			Epoch:     1,
			Params:    clusterParams,
			Seeds:     seeds,
			Interval:  clusterInterval,
			Fanout:    clusterFanout,
			Local:     spanLocal{base: gossip.ServerLocal{S: cn.svc.srv}, slot: &cn.svc.rec},
			Transport: cn.tr,
		})
		if err != nil {
			env.close()
			return nil, err
		}
		cn.node = n
		holders[i].Store(n)
		n.Start()
	}
	for _, cn := range env.nodes {
		cl := &server.Client{Base: cn.svc.base}
		for _, acc := range env.accs {
			if _, err := cl.Create(acc, clusterParams); err != nil {
				env.close()
				return nil, fmt.Errorf("create %s: %w", acc, err)
			}
		}
	}
	// Joined: every node's view holds every other node.
	for deadline := time.Now().Add(clusterTimeout); ; time.Sleep(time.Millisecond) {
		joined := true
		for _, cn := range env.nodes {
			joined = joined && len(cn.node.Peers()) == clusterNodes-1
		}
		if joined {
			return env, nil
		}
		if time.Now().After(deadline) {
			env.close()
			return nil, fmt.Errorf("cluster did not join within %s", clusterTimeout)
		}
	}
}

func (e *clusterEnv) close() {
	for _, cn := range e.nodes {
		if cn.node != nil {
			cn.node.Close()
			cn.http.Client.CloseIdleConnections()
		}
	}
	for _, cn := range e.nodes {
		cn.svc.close()
	}
}

// burst writes one pool frame to every accumulator on every node through
// procs load goroutines, folds each acked frame into the oracle, and
// returns the writes' wall times in ns.
func (e *clusterEnv) burst(rep *report, procs int, transport *http.Transport, rec *recorder) []float64 {
	type job struct{ node, acc, frame int }
	var jobs []job
	for n := range e.nodes {
		for a := range e.accs {
			jobs = append(jobs, job{n, a, e.next % clusterPool})
			e.next++
		}
	}
	var mu sync.Mutex
	var fails int
	var walls []float64
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hc, st := clientHTTP(transport, rec)
			clients := make([]*server.Client, len(e.nodes))
			for n, cn := range e.nodes {
				clients[n] = &server.Client{Base: cn.svc.base, HTTP: hc}
			}
			for k := g; k < len(jobs); k += procs {
				j := jobs[k]
				vals := e.pool[j.frame]
				sp := rec.start(spanCtx{}, "client.write")
				st.setParent(sp.ctx())
				t := time.Now()
				stats, err := clients[j.node].Stream(e.accs[j.acc], vals)
				wall := time.Since(t)
				sp.end()
				mu.Lock()
				walls = append(walls, float64(wall))
				for _, x := range vals[:stats.Values] {
					e.oracle[j.acc].Add(x)
				}
				if err != nil {
					fails++
					fmt.Fprintf(os.Stderr, "perfbench: write %s on node %d: %v\n", e.accs[j.acc], j.node, err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	rep.attempted += len(jobs)
	rep.failed += fails
	return walls
}

// converge polls ClusterRead on every node until each serves every
// accumulator's oracle total, and returns how long that took from the
// call. Once a node serves an accumulator's oracle total it keeps doing so
// (nothing is written meanwhile), so each (node, accumulator) pair is read
// until it matches and then left alone; a node's scan stops at its first
// pair still behind.
func (e *clusterEnv) converge(rep *report, rec *recorder) (time.Duration, bool) {
	start := time.Now()
	want := make([]string, len(e.accs))
	for a, o := range e.oracle {
		txt, err := o.Sum().MarshalText()
		if err != nil {
			rep.checkFailed("oracle %s: %v", e.accs[a], err)
			return 0, false
		}
		want[a] = string(txt)
	}
	digests := make([][]string, len(e.nodes))
	pending := make([]int, len(e.nodes)) // accumulators 0..pending-1 match
	for {
		done := true
		for n, cn := range e.nodes {
			for pending[n] < len(e.accs) {
				a := pending[n]
				sp := rec.start(spanCtx{}, "gossip.cluster_read")
				info, err := cn.node.ClusterRead(e.accs[a])
				sp.end()
				if err != nil || info.HP != want[a] {
					break
				}
				digests[n] = append(digests[n], info.Digest)
				pending[n]++
			}
			done = done && pending[n] == len(e.accs)
		}
		if done {
			break
		}
		if time.Since(start) > clusterTimeout {
			rep.checkFailed("cluster did not converge within %s", clusterTimeout)
			return time.Since(start), false
		}
		time.Sleep(clusterPoll)
	}
	took := time.Since(start)
	for a := range e.accs {
		for n := 1; n < len(e.nodes); n++ {
			if digests[n][a] != digests[0][a] {
				rep.checkFailed("%s: node %d digest %s, node 0 digest %s", e.accs[a], n, digests[n][a], digests[0][a])
			}
		}
	}
	return took, true
}

func (e *clusterEnv) rounds() float64 {
	var r uint64
	for _, cn := range e.nodes {
		r += cn.node.Stats().Rounds
	}
	return float64(r) / float64(len(e.nodes))
}

func runCluster(o opts) (*report, error) {
	rep := &report{}
	env, setups, err := repeatSetup(func() (*clusterEnv, error) { return setupCluster(o) },
		func(e *clusterEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep.setups = setups
	transport := newTransport(o.procs)
	defer transport.CloseIdleConnections()
	var untracedWrite float64 // mean write wall of the untraced phase, ns

	measure := func(rec *recorder, secs float64) (map[string]float64, error) {
		for _, cn := range env.nodes {
			cn.svc.rec.Store(rec)
			cn.tr.reset()
		}
		defer func() {
			for _, cn := range env.nodes {
				cn.svc.rec.Store(nil)
			}
		}()
		before, err := readTelemetry()
		if err != nil {
			return nil, err
		}
		r0 := env.rounds()
		var converge, roundsTo, writes []float64
		deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
		for len(converge) == 0 || time.Now().Before(deadline) {
			writes = append(writes, env.burst(rep, o.procs, transport, rec)...)
			rb := env.rounds()
			rep.attempted++
			took, ok := env.converge(rep, rec)
			if !ok {
				return nil, fmt.Errorf("burst %d did not converge", len(converge)+1)
			}
			converge = append(converge, float64(took))
			roundsTo = append(roundsTo, env.rounds()-rb)
		}
		entries := float64(clusterNodes * clusterAccs) // store entries each burst changes
		// Bursts converge a whole gossip round apart, so converge_s is the
		// central mean over bursts rather than the median.
		convMs := centralMean(converge) / 1e6
		m := map[string]float64{slotWork: entries / (convMs / 1e3), slotOp: convMs}
		if rec == nil {
			untracedWrite = mean(writes)
			convTail, pct := tail(converge)
			rep.name("converge_s", convMs/1e3, "s")
			rep.name(fmt.Sprintf("converge_p%.4g_s", pct), convTail/1e9, "s")
			rep.name("bursts", float64(len(converge)), "count")
			return m, nil
		}
		after, err := readTelemetry()
		if err != nil {
			return nil, err
		}
		a := rec.analyze()
		L := rep.layers
		values := after.since(before, "server_values_total")
		serviceLayers(L, a, before, after, values)
		rounds := (env.rounds() - r0) * clusterNodes
		var frames, bytes, entriesSent float64
		for _, cn := range env.nodes {
			frames += float64(cn.tr.frames.Load())
			bytes += float64(cn.tr.bytes.Load())
			entriesSent += float64(cn.tr.entries.Load())
		}
		L["gossip.round_ms"] = after.histMeanSince(before, "gossip_round_duration_seconds") * 1e3
		L["gossip.refresh_ms"] = a.layer("gossip.refresh").meanMs()
		L["gossip.frames_per_round"] = ratio(frames, rounds)
		L["gossip.bytes_per_round"] = ratio(bytes, rounds)
		L["gossip.send_ms"] = a.layer("gossip.send").meanMs()
		L["gossip.handle_ms"] = a.layer("gossip.handle").meanMs()
		L["gossip.cluster_read_ms"] = a.layer("gossip.cluster_read").meanMs()
		L["gossip.applied_ratio"] = ratio(after.since(before, "gossip_entries_applied_total"), entriesSent)
		L["gossip.rounds_to_converge"] = median(roundsTo)
		L["gossip.digest_mismatches"] = after.since(before, "gossip_digest_mismatches_total")
		L["gossip.outbound_dropped"] = after.since(before, "gossip_outbound_dropped_total")
		L["trace.unaccounted_share"] = unaccounted(a, "client.write", untracedWrite)
		return m, nil
	}
	if err := phases(o, rep, measure); err != nil {
		return nil, err
	}
	return rep, nil
}

// spanGossipTransport times each gossip frame send while its node's
// recorder slot is set, and counts frames, bytes and the entries the
// frames ship (decoded with the program's own DecodeMessage).
type spanGossipTransport struct {
	base                   gossip.Transport
	slot                   *atomic.Pointer[recorder]
	frames, bytes, entries atomic.Int64
}

func (t *spanGossipTransport) Send(dst gossip.Peer, frame []byte) error {
	rec := t.slot.Load()
	if rec == nil {
		return t.base.Send(dst, frame)
	}
	sp := rec.start(spanCtx{}, "gossip.send")
	err := t.base.Send(dst, frame)
	sp.end()
	t.frames.Add(1)
	t.bytes.Add(int64(len(frame)))
	if m, _, derr := gossip.DecodeMessage(frame); derr == nil {
		t.entries.Add(int64(len(m.Entries)))
	}
	return err
}

func (t *spanGossipTransport) reset() {
	t.frames.Store(0)
	t.bytes.Store(0)
	t.entries.Store(0)
}

// spanLocal times each refresh of a node's own contributions.
type spanLocal struct {
	base gossip.Local
	slot *atomic.Pointer[recorder]
}

func (l spanLocal) Contributions() ([]gossip.Contribution, error) {
	sp := l.slot.Load().start(spanCtx{}, "gossip.refresh")
	defer sp.end()
	return l.base.Contributions()
}
