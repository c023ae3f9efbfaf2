// Command hpsumd serves order-invariant summation as a network service: a
// sharded registry of named HP accumulators behind a streaming binary ingest
// API. Because HP addition is exactly associative and commutative, any
// number of clients may stream frames concurrently, in any interleaving,
// and the final sum is bit-identical to a serial pass — the service can
// shard, batch, and reorder freely without ever changing a ulp.
//
//	hpsumd -addr :8080                          # serve with Params384 default
//	hpsumd -addr :8080 -snapshot state.hpar     # snapshot on graceful shutdown
//	hpsumd -addr :8080 -restore state.hpar -snapshot state.hpar
//	hpsumd -addr :8080 -replicas 3              # 2-of-3 certified reads
//	hpsumd -addr :8080 -journal f.hpfj -audit-log a.hpal -audit-interval 30s
//	hpsumd -addr :8081 -node-id b -peers http://127.0.0.1:8080 \
//	    -gossip-interval 500ms -gossip-state b.hpgc   # join a gossip cluster
//
// With -peers (or -node-id) the daemon joins a gossip cluster: Brahms-style
// membership keeps a bounded peer view, and per-round anti-entropy
// exchanges HP envelope digests so every node converges to bit-identical
// cluster totals (served at /gossip/sum/<name>). -gossip-state persists the
// contribution store across restarts; a restarted node reseeds from it
// under a fresh epoch and catches up via anti-entropy.
//
// With -replicas n every accumulator runs n lock-step replicas and reads
// are served only under a k-of-n agreement certificate (fail-closed 503 on
// divergence; minority replicas are quarantined and reseeded). With
// -journal/-audit-log every accepted frame is journaled and each snapshot
// cut is chained into a hash-linked audit log that cmd/hpaudit can replay
// offline to prove the served totals.
//
// One listener carries both the service API (/v1/...) and the telemetry
// exporter (/metrics, /debug/vars, /debug/pprof/). SIGINT or SIGTERM
// triggers a graceful shutdown: stop accepting requests (every acked frame
// is already folded), write the snapshot (if -snapshot is set), then exit.
// A snapshot is a one-record audit chain, so hpaudit can replay it against
// the frame journal like the audit log. Restarting with -restore reloads the snapshot
// byte-identically: the restored accumulators carry the exact limbs,
// counters, and sticky errors they held at shutdown, and adds accepted
// after restart continue the same exact trajectory.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gossip"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "hpsumd:", err)
		os.Exit(1)
	}
}

// run is main with injectable args, an optional ready channel (tests use
// it to learn the bound address of ":0" listeners) and an optional stop
// channel: closing it shuts this daemon down exactly as SIGINT or SIGTERM
// does, without signalling the whole process. It returns once the server
// has fully shut down.
func run(args []string, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("hpsumd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (service API + telemetry on one listener)")
		hpn         = fs.Int("n", 6, "default HP total limbs N for new accumulators")
		hpk         = fs.Int("k", 3, "default HP fractional limbs k")
		shards      = fs.Int("shards", runtime.GOMAXPROCS(0), "concurrent fold lanes (partial sums) per replica")
		wait        = fs.Duration("enqueue-wait", 5*time.Millisecond, "how long ingest waits for an idle shard before 429")
		snapshot    = fs.String("snapshot", "", "write a snapshot to this path on graceful shutdown")
		restore     = fs.String("restore", "", "reload accumulators from this snapshot at startup")
		replicas    = fs.Int("replicas", 1, "in-process replicas per accumulator (k-of-n certified reads)")
		quorum      = fs.Int("quorum", 0, "replicas that must agree to serve a read (0 = majority)")
		journal     = fs.String("journal", "", "append every accepted frame to this journal (required with -audit-log)")
		auditLog    = fs.String("audit-log", "", "append hash-linked audit records to this path (required with -journal)")
		auditEvery  = fs.Duration("audit-interval", 0, "cut a periodic audit record this often (0 = shutdown record only)")
		faultPlan   = fs.String("replica-fault-plan", "", "inject Byzantine replica faults, e.g. \"seed=7;lie:replica=1,limit=1\" (testing only)")
		peers       = fs.String("peers", "", "comma-separated peer base URLs to gossip with (enables clustering)")
		gossipEvery = fs.Duration("gossip-interval", time.Second, "push/pull round interval")
		gossipFan   = fs.Int("gossip-fanout", 2, "peers contacted per gossip round")
		nodeID      = fs.String("node-id", "", "stable cluster identity (default: the listen address; enables clustering)")
		gossipState = fs.String("gossip-state", "", "persist the gossip contribution store here on shutdown and reseed from it at startup")
		traceOn     = fs.Bool("trace", false, "record spans (export at /debug/trace as Chrome trace-event JSON)")
		traceSample = fs.Uint64("trace-sample", 1, "record 1 in every N traces (1 = all)")
		flightDump  = fs.String("flight-dump", "", "write flight-recorder JSON here on SIGQUIT, stall, crash, or 5xx")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := core.Params{N: *hpn, K: *hpk}
	if err := p.Validate(); err != nil {
		return err
	}
	if (*journal == "") != (*auditLog == "") {
		return fmt.Errorf("-journal and -audit-log must be set together")
	}
	if *traceOn {
		trace.SetEnabled(true)
		trace.SetSampling(*traceSample)
	}
	stopFlight := trace.StartFlightDump(*flightDump)
	defer stopFlight()

	var hook func(int, []byte) []byte
	if *faultPlan != "" {
		plan, err := faults.ParseReplicaPlan(*faultPlan)
		if err != nil {
			return fmt.Errorf("replica-fault-plan: %w", err)
		}
		hook = plan.NewReplicaInjector().OnReport
		fmt.Fprintf(os.Stderr, "hpsumd: WARNING: injecting replica faults (%s)\n", *faultPlan)
	}

	s := server.New(server.Config{
		Params:      p,
		Shards:      *shards,
		EnqueueWait: *wait,
		Replicas:    *replicas,
		Quorum:      *quorum,
		ReportHook:  hook,
	})
	audited := *journal != ""
	if audited {
		// Before any accumulator exists, so the journal sees every frame.
		if err := s.EnableAudit(*journal, *auditLog); err != nil {
			return fmt.Errorf("enable audit: %w", err)
		}
		fmt.Fprintf(os.Stderr, "hpsumd: auditing to %s (journal %s)\n", *auditLog, *journal)
	}
	if *restore != "" {
		n, err := s.Restore(*restore)
		if err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		fmt.Fprintf(os.Stderr, "hpsumd: restored %d accumulator(s) from %s\n", n, *restore)
	}

	// Service API takes /v1/; gossip (if enabled) takes /gossip; everything
	// else (/, /metrics, /debug/...) falls through to the telemetry
	// exporter. The gossip node needs the bound address for its own
	// identity, so the routes go in first through a holder that 503s until
	// the node exists.
	clustered := *peers != "" || *nodeID != ""
	var gnode atomic.Pointer[gossip.Node]
	mux := http.NewServeMux()
	mux.Handle("/v1/", s.Handler())
	if clustered {
		gossipHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := gnode.Load()
			if n == nil {
				http.Error(w, "gossip: node starting", http.StatusServiceUnavailable)
				return
			}
			n.Handler().ServeHTTP(w, r)
		})
		mux.Handle("/gossip", gossipHandler)
		mux.Handle("/gossip/", gossipHandler)
	}
	mux.Handle("/", telemetry.Handler())
	srv, err := telemetry.ServeHandler(*addr, mux)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hpsumd: serving on %s (N=%d, k=%d, %d shards)\n", srv.Addr(), p.N, p.K, *shards)

	if clustered {
		id := *nodeID
		if id == "" {
			id = srv.Addr()
		}
		var seeds []gossip.Peer
		for _, u := range strings.Split(*peers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				seeds = append(seeds, gossip.Peer{ID: u, Addr: u})
			}
		}
		var recovery []byte
		epoch := uint64(time.Now().Unix())
		if *gossipState != "" {
			if blob, err := os.ReadFile(*gossipState); err == nil {
				// A lagging clock must not reuse a checkpointed epoch: the
				// restart always moves to a strictly newer one.
				if rec, err := gossip.NewStore(p).RestoreCheckpoint(blob); err == nil && rec >= epoch {
					epoch = rec + 1
				}
				recovery = blob
			}
		}
		n, err := gossip.NewNode(gossip.Config{
			Self:      gossip.Peer{ID: id, Addr: "http://" + srv.Addr()},
			Epoch:     epoch,
			Params:    p,
			Seeds:     seeds,
			Interval:  *gossipEvery,
			Fanout:    *gossipFan,
			Local:     gossip.ServerLocal{S: s},
			Transport: gossip.NewHTTPTransport(0),
			Recovery:  recovery,
		})
		if err != nil {
			srv.Close()
			s.Close()
			return fmt.Errorf("gossip: %w", err)
		}
		gnode.Store(n)
		n.Start()
		fmt.Fprintf(os.Stderr, "hpsumd: gossiping as %s (epoch %d, %d seed(s), every %s, fanout %d)\n",
			id, epoch, len(seeds), *gossipEvery, *gossipFan)
	}
	// Register for the shutdown signals before announcing ready: a SIGTERM
	// that arrives right after the announcement must be caught, not take
	// the default action and kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	if ready != nil {
		ready <- srv.Addr()
	}

	// Periodic audit records ride a ticker; each cut is a quiescent-point
	// quorum read of every accumulator, chained into the log.
	stopAudit := make(chan struct{})
	var auditWG sync.WaitGroup
	if audited && *auditEvery > 0 {
		auditWG.Add(1)
		go func() {
			defer auditWG.Done()
			tick := time.NewTicker(*auditEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopAudit:
					return
				case <-tick.C:
					if _, err := s.AuditRecord("periodic"); err != nil {
						fmt.Fprintf(os.Stderr, "hpsumd: periodic audit: %v\n", err)
					}
				}
			}
		}()
	}

	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "hpsumd: %s: shutting down\n", got)
	case <-stop:
		fmt.Fprintln(os.Stderr, "hpsumd: stopped: shutting down")
	}

	// Shutdown order matters: stop the HTTP layer first so nothing can
	// ingest anymore (an acked frame is already folded), snapshot and cut
	// the shutdown audit record so both reflect all acked work, and only
	// then close the server and the audit files.
	close(stopAudit)
	auditWG.Wait()
	if n := gnode.Load(); n != nil {
		// Checkpoint before Close (a closed node cannot cut one), then
		// announce departure and stop gossiping before the listener drops.
		if *gossipState != "" {
			if blob, err := n.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "hpsumd: gossip checkpoint: %v\n", err)
			} else if err := server.WriteFileDurable(*gossipState, blob); err != nil {
				fmt.Fprintf(os.Stderr, "hpsumd: gossip state %s: %v\n", *gossipState, err)
			} else {
				fmt.Fprintf(os.Stderr, "hpsumd: gossip state written to %s\n", *gossipState)
			}
		}
		n.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hpsumd: http shutdown: %v\n", err)
	}
	if *snapshot != "" {
		if err := s.Snapshot(*snapshot); err != nil {
			s.Close()
			return fmt.Errorf("snapshot %s: %w", *snapshot, err)
		}
		fmt.Fprintf(os.Stderr, "hpsumd: snapshot written to %s\n", *snapshot)
	}
	if audited {
		if rec, err := s.AuditRecord("sigterm"); err != nil {
			fmt.Fprintf(os.Stderr, "hpsumd: shutdown audit: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "hpsumd: audit record %d written\n", rec.Seq)
		}
	}
	s.Close()
	if audited {
		if err := s.CloseAudit(); err != nil {
			return fmt.Errorf("close audit: %w", err)
		}
	}
	return nil
}
