// Command benchsum is the reproducible summation benchmark runner behind
// BENCH_sum.json. It times one pass over a fixed pseudorandom workload
// through each HP summation path — the pre-PR Listing 1+2 loop, the fused
// sparse kernel, the exponent-indexed superaccumulator (plus its
// forced-spill stress), the omp reduction, the
// atomic XADD/CAS/bulk-flush accumulators, the two-phase scan, and the
// gossip-convergence cluster sweep (nodes x fanout, frames/sec plus
// rounds-to-convergence) — and writes a schema-tagged JSON report with throughput, speedup over the
// legacy baseline, heap-allocation rates, and the machine's measured
// memory-bandwidth ceiling. Parallel workloads are swept over worker counts
// 1/2/4/NumCPU; every configuration must produce the same checksum
// bit-for-bit.
//
//	benchsum -count 1048576 -trials 5 -out BENCH_sum.json
//	benchsum -validate BENCH_sum.json
//	benchsum -against BENCH_sum.json   # regression gate for CI
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/gossip"
	"repro/internal/omp"
	"repro/internal/rng"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/trace"
)

type config struct {
	params core.Params
	count  int
	trials int
	// sweep is the worker counts the parallel workloads run at.
	sweep []int
	seed  uint64
	// replicas is the server-loopback replication factor (1 = unreplicated,
	// matching committed reports).
	replicas int
}

// guardedWorkloads are the paths the -against regression gate holds to
// within maxSpeedupDrop of the committed report's speedup. super-spill is
// guarded alongside the hot loops: the spill fold is the fixed cost every
// superaccumulator pays, and a regression there hides inside serial-super's
// amortization until the spill cadence changes.
var guardedWorkloads = []string{"serial-fused", "serial-super", "super-spill"}

const maxSpeedupDrop = 0.25

func main() {
	var (
		hpn      = flag.Int("n", 6, "HP total limbs N")
		hpk      = flag.Int("k", 3, "HP fractional limbs k")
		count    = flag.Int("count", 1<<20, "summands per trial")
		trials   = flag.Int("trials", 5, "timed repetitions (median reported)")
		workers  = flag.Int("workers", runtime.NumCPU(), "max threads for the parallel workload sweep")
		seed     = flag.Uint64("seed", 20160523, "workload PRNG seed")
		replicas = flag.Int("replicas", 1, "server-loopback replication factor (k-of-n certification overhead; keep 1 for committed reports)")
		out      = flag.String("out", "BENCH_sum.json", "report output path")
		validate = flag.String("validate", "", "validate an existing report and exit")
		against  = flag.String("against", "", "committed report to gate against: fail on checksum drift or >25% speedup drop")

		noasm       = flag.Bool("noasm", false, "disable the assembly kernels and AVX2 front loop (generic Go lanes only; equivalent to REPRO_NOASM=1)")
		traceOn     = flag.Bool("trace", false, "record spans while benchmarking (perturbs timings; off for committed reports)")
		traceSample = flag.Uint64("trace-sample", 1, "record 1 in every N traces (1 = all)")
		flightDump  = flag.String("flight-dump", "", "write flight-recorder JSON here on SIGQUIT or overflow trip")
	)
	flag.Parse()
	if *noasm {
		core.SetAsmEnabled(false)
	}
	if *traceOn {
		trace.SetEnabled(true)
		trace.SetSampling(*traceSample)
	}
	stopFlight := trace.StartFlightDump(*flightDump)
	defer stopFlight()
	outSet := false
	flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })

	if *validate != "" {
		r, err := bench.ReadReport(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsum: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: schema %s ok, %d workloads, count=%d\n",
			*validate, r.Schema, len(r.Workloads), r.Count)
		return
	}

	cfg := config{
		params:   core.Params{N: *hpn, K: *hpk},
		count:    *count,
		trials:   *trials,
		sweep:    workerSweep(*workers),
		seed:     *seed,
		replicas: *replicas,
	}
	report, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsum: %v\n", err)
		os.Exit(1)
	}
	if *against != "" {
		committed, err := bench.ReadReport(*against)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsum: %v\n", err)
			os.Exit(1)
		}
		printTable(report)
		if err := bench.CompareReports(report, committed, guardedWorkloads, maxSpeedupDrop); err != nil {
			fmt.Fprintf(os.Stderr, "benchsum: regression vs %s: %v\n", *against, err)
			os.Exit(1)
		}
		fmt.Printf("no regression vs %s (checksums bit-identical, guarded speedups within %.0f%%)\n",
			*against, maxSpeedupDrop*100)
		// Gate mode is read-only: don't clobber the baseline it just read
		// unless an output path was asked for explicitly.
		if !outSet {
			return
		}
	}
	if err := report.WriteJSON(*out); err != nil {
		fmt.Fprintf(os.Stderr, "benchsum: %v\n", err)
		os.Exit(1)
	}
	if *against == "" {
		printTable(report)
	}
	fmt.Printf("wrote %s\n", *out)
}

// workerSweep returns the parallel workloads' worker counts: 1, 2, 4, and
// the requested maximum (normally NumCPU), deduplicated. Counts above the
// CPU count are kept — oversubscribed teams still demonstrate that the
// checksum is invariant in the worker count, which is the sweep's point.
func workerSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	sweep := []int{1, 2, 4}
	if !slices.Contains(sweep, max) {
		sweep = append(sweep, max)
	}
	slices.Sort(sweep)
	return sweep
}

// workload is one measured code path: fn sums xs once and returns the
// rounded result.
type workload struct {
	name    string
	workers int
	exact   bool // checksum must match the other exact paths bit-for-bit
	frames  int  // wire frames per pass, for service workloads (0 otherwise)
	fn      func(xs []float64) (float64, error)
}

// baselineName is the pre-fused-kernel reference path every speedup is
// relative to: the paper's Listing 1 conversion into a scratch HP followed
// by the Listing 2 full-width add, per element.
const baselineName = "serial-legacy"

func workloads(cfg config) []workload {
	p := cfg.params
	ws := []workload{
		{baselineName, 1, true, 0, func(xs []float64) (float64, error) {
			sum := core.New(p)
			scratch := core.New(p)
			for _, x := range xs {
				if err := scratch.SetFloat64Listing1(x); err != nil {
					return 0, err
				}
				if sum.AddListing2(scratch) {
					return 0, fmt.Errorf("overflow")
				}
			}
			return sum.Float64(), nil
		}},
		{"serial-fused", 1, true, 0, func(xs []float64) (float64, error) {
			acc := core.NewAccumulator(p)
			acc.AddAll(xs)
			return acc.Float64(), acc.Err()
		}},
		{"serial-super", 1, true, 0, func(xs []float64) (float64, error) {
			s := core.NewSuper(p)
			s.AddSlice(xs)
			return s.Float64(), s.Err()
		}},
		// Forced-spill stress: feed the superaccumulator in 64-value slices
		// with an explicit Spill after each, so the bin fold runs ~16x more
		// often than the counted bound requires. The gap between this and
		// serial-super is the amortized spill overhead; the checksum is
		// bit-identical regardless (spill placement is invariant).
		{"super-spill", 1, true, 0, func(xs []float64) (float64, error) {
			s := core.NewSuper(p)
			for len(xs) > 0 {
				n := min(64, len(xs))
				s.AddSlice(xs[:n])
				s.Spill()
				xs = xs[n:]
			}
			return s.Float64(), s.Err()
		}},
	}
	for _, workers := range cfg.sweep {
		workers := workers
		ws = append(ws,
			workload{"omp-reduce", workers, true, 0, func(xs []float64) (float64, error) {
				team := omp.NewTeam(workers)
				total := omp.Reduce(team, len(xs),
					func(int) *core.SuperAccumulator { return core.NewSuper(p) },
					func(local *core.SuperAccumulator, _, lo, hi int) {
						local.AddSlice(xs[lo:hi])
					},
					func(into, from *core.SuperAccumulator) { into.MergeChecked(from) })
				return total.Float64(), total.Err()
			}},
			workload{"atomic-xadd", workers, true, 0, func(xs []float64) (float64, error) {
				dst := core.NewAtomic(p)
				errs := make([]error, workers)
				omp.NewTeam(workers).For(len(xs), func(tid, lo, hi int) {
					for i := lo; i < hi; i++ {
						if err := dst.AddFloat64(xs[i]); err != nil {
							errs[tid] = err
							return
						}
					}
				})
				for _, err := range errs {
					if err != nil {
						return 0, err
					}
				}
				return dst.Snapshot().Float64(), nil
			}},
			workload{"atomic-cas", workers, true, 0, func(xs []float64) (float64, error) {
				dst := core.NewAtomic(p)
				errs := make([]error, workers)
				omp.NewTeam(workers).For(len(xs), func(tid, lo, hi int) {
					for i := lo; i < hi; i++ {
						if err := dst.AddFloat64CAS(xs[i]); err != nil {
							errs[tid] = err
							return
						}
					}
				})
				for _, err := range errs {
					if err != nil {
						return 0, err
					}
				}
				return dst.Snapshot().Float64(), nil
			}},
			// Bulk flush: each thread folds its block through a local
			// superaccumulator and lands it in the shared accumulator with
			// one full-width atomic pass — the AtomicArray.AddSlice path.
			workload{"atomic-batch", workers, true, 0, func(xs []float64) (float64, error) {
				bank := core.NewAtomicArray(p, workers)
				errs := make([]error, workers)
				omp.NewTeam(workers).For(len(xs), func(tid, lo, hi int) {
					errs[tid] = bank.AddSlice(tid, xs[lo:hi], nil)
				})
				for _, err := range errs {
					if err != nil {
						return 0, err
					}
				}
				total, err := bank.Combine()
				if err != nil {
					return 0, err
				}
				return total.Float64(), nil
			}},
			// The scan emits n rounded prefixes, not one sum; its checksum is
			// the final prefix, which equals the reduction result exactly.
			workload{"scan-inclusive", workers, true, 0, func(xs []float64) (float64, error) {
				out, err := scan.Inclusive(p, xs, workers)
				if err != nil {
					return 0, err
				}
				return out[len(out)-1], nil
			}},
		)
	}
	ws = append(ws, serverLoopback(cfg))
	return ws
}

// serverLoopback measures the full network service path: an in-process
// hpsumd handler on a real loopback TCP listener, fed by concurrent clients
// streaming CRC-framed binary batches. It is an exact workload — the
// service merge is bit-identical to the serial paths — so its checksum
// rides the same cross-path identity check, and it is the only workload
// reporting frames/sec.
func serverLoopback(cfg config) workload {
	p := cfg.params
	clients := cfg.sweep[len(cfg.sweep)-1]
	const frameLen = 4096
	frames := 0
	for i := 0; i < clients; i++ {
		sz := cfg.count / clients
		if i < cfg.count%clients {
			sz++
		}
		frames += (sz + frameLen - 1) / frameLen
	}
	return workload{"server-loopback", clients, true, frames, func(xs []float64) (float64, error) {
		s := server.New(server.Config{Params: p, Replicas: cfg.replicas})
		defer s.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		hs := &http.Server{Handler: s.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		base := "http://" + ln.Addr().String()

		c := &server.Client{Base: base, FrameLen: frameLen}
		if _, err := c.Create("bench", core.Params{}); err != nil {
			return 0, err
		}
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for i := 0; i < clients; i++ {
			lo := i * len(xs) / clients
			hi := (i + 1) * len(xs) / clients
			wg.Add(1)
			go func(i int, part []float64) {
				defer wg.Done()
				cl := &server.Client{Base: base, FrameLen: frameLen}
				_, errs[i] = cl.Stream("bench", part)
			}(i, xs[lo:hi])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		info, err := c.Get("bench")
		if err != nil {
			return 0, err
		}
		if info.Err != "" {
			return 0, fmt.Errorf("server-loopback: sticky error %s", info.Err)
		}
		return info.Sum, nil
	}}
}

// gossipWorkload is a workload whose wire traffic is data-dependent: the
// gossip frame count and the rounds a cluster needs to converge vary with
// goroutine scheduling, so instead of the static frames field it carries a
// stats hook reporting the last pass's measured numbers.
type gossipWorkload struct {
	workload
	stats func() (frames, rounds float64)
}

// gossipWorkloads is the nodes x fanout convergence sweep: each pass
// stands up an in-process gossip cluster, partitions the summands across
// the member nodes, and spins until every node's cluster read agrees
// bit-for-bit. The merged sum rides the exact-path identity check like
// every other exact workload.
func gossipWorkloads(cfg config) []gossipWorkload {
	var ws []gossipWorkload
	for _, nodes := range []int{3, 5} {
		for _, fanout := range []int{1, 2} {
			ws = append(ws, gossipConvergence(cfg, nodes, fanout))
		}
	}
	return ws
}

// memGossipTransport delivers frames synchronously between the in-process
// nodes of one gossip-convergence pass, counting every frame.
type memGossipTransport struct {
	mu     sync.RWMutex
	nodes  map[string]*gossip.Node
	frames atomic.Int64
}

func (m *memGossipTransport) add(n *gossip.Node) {
	m.mu.Lock()
	m.nodes[n.Self().ID] = n
	m.mu.Unlock()
}

func (m *memGossipTransport) Send(dst gossip.Peer, frame []byte) error {
	m.mu.RLock()
	n := m.nodes[dst.ID]
	m.mu.RUnlock()
	if n == nil {
		return fmt.Errorf("gossip-convergence: unknown peer %s", dst.ID)
	}
	m.frames.Add(1)
	return n.Handle(frame)
}

// staticLocal serves one precomputed partial as a node's sole contribution.
type staticLocal struct{ c gossip.Contribution }

func (l staticLocal) Contributions() ([]gossip.Contribution, error) {
	return []gossip.Contribution{l.c}, nil
}

func gossipConvergence(cfg config, nodes, fanout int) gossipWorkload {
	p := cfg.params
	name := fmt.Sprintf("gossip-convergence-n%df%d", nodes, fanout)
	var lastFrames, lastRounds float64
	fn := func(xs []float64) (float64, error) {
		tr := &memGossipTransport{nodes: make(map[string]*gossip.Node, nodes)}
		peers := make([]gossip.Peer, nodes)
		for i := range peers {
			id := fmt.Sprintf("bench-%d", i)
			peers[i] = gossip.Peer{ID: id, Addr: id}
		}
		ns := make([]*gossip.Node, 0, nodes)
		defer func() {
			for _, n := range ns {
				n.Close()
			}
		}()
		for i := 0; i < nodes; i++ {
			lo := i * len(xs) / nodes
			hi := (i + 1) * len(xs) / nodes
			h, err := core.SumHP(p, xs[lo:hi])
			if err != nil {
				return 0, err
			}
			seeds := make([]gossip.Peer, 0, nodes-1)
			for j, q := range peers {
				if j != i {
					seeds = append(seeds, q)
				}
			}
			n, err := gossip.NewNode(gossip.Config{
				Self:      peers[i],
				Epoch:     1,
				Params:    p,
				Seeds:     seeds,
				Interval:  time.Millisecond,
				Fanout:    fanout,
				Local:     staticLocal{gossip.Contribution{Acc: "bench", HP: h, Adds: uint64(hi - lo), Frames: 1}},
				Transport: tr,
			})
			if err != nil {
				return 0, err
			}
			tr.add(n)
			ns = append(ns, n)
		}
		for _, n := range ns {
			n.Start()
		}

		want := uint64(len(xs))
		deadline := time.Now().Add(30 * time.Second)
		var info gossip.ClusterInfo
		for {
			converged, digest := true, ""
			for _, n := range ns {
				ci, err := n.ClusterRead("bench")
				if err != nil {
					return 0, err
				}
				if ci.Adds != want || ci.Contributors != nodes ||
					(digest != "" && ci.Digest != digest) {
					converged = false
					break
				}
				digest, info = ci.Digest, ci
			}
			if converged {
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("%s: cluster did not converge", name)
			}
			time.Sleep(200 * time.Microsecond)
		}
		var rounds uint64
		for _, n := range ns {
			if s := n.Stats(); s.Rounds > rounds {
				rounds = s.Rounds
			}
		}
		lastFrames, lastRounds = float64(tr.frames.Load()), float64(rounds)
		return info.Sum, nil
	}
	return gossipWorkload{
		workload: workload{name, nodes, true, 0, fn},
		stats:    func() (float64, float64) { return lastFrames, lastRounds },
	}
}

func run(cfg config) (*bench.Report, error) {
	if err := cfg.params.Validate(); err != nil {
		return nil, err
	}
	if cfg.count < 1 || cfg.trials < 1 || len(cfg.sweep) == 0 {
		return nil, fmt.Errorf("count=%d trials=%d sweep=%v", cfg.count, cfg.trials, cfg.sweep)
	}
	xs := rng.UniformSet(rng.New(cfg.seed), cfg.count, -0.5, 0.5)

	report := &bench.Report{
		Schema:      bench.SumReportSchema,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUFeatures: cpu.Features(),
		HPLimbs:     cfg.params.N,
		HPFrac:      cfg.params.K,
		Count:       cfg.count,
		Trials:      cfg.trials,
		Baseline:    baselineName,
	}

	var wantSum float64
	haveWant := false
	for _, w := range workloads(cfg) {
		// Warm-up run doubles as the correctness and allocation probe.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sum, err := w.fn(xs)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("%s workers=%d: %w", w.name, w.workers, err)
		}
		if w.exact {
			if !haveWant {
				wantSum, haveWant = sum, true
			} else if math.Float64bits(sum) != math.Float64bits(wantSum) {
				return nil, fmt.Errorf("%s workers=%d: checksum %x, want %x (paths not bit-identical)",
					w.name, w.workers, math.Float64bits(sum), math.Float64bits(wantSum))
			}
		}

		var failed error
		d := bench.MeasureMedian(cfg.trials, func() {
			if _, err := w.fn(xs); err != nil && failed == nil {
				failed = err
			}
		})
		if failed != nil {
			return nil, fmt.Errorf("%s workers=%d: %w", w.name, w.workers, failed)
		}
		wl := bench.Workload{
			Name:            w.name,
			Workers:         w.workers,
			Backend:         core.KernelBackend(cfg.params),
			SecondsPerTrial: d.Seconds(),
			AddsPerSec:      float64(cfg.count) / d.Seconds(),
			MallocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(cfg.count),
			Checksum:        sum,
		}
		if w.frames > 0 {
			wl.FramesPerSec = float64(w.frames) / d.Seconds()
		}
		report.Workloads = append(report.Workloads, wl)
	}

	// The gossip convergence sweep runs in a second pass because its wire
	// traffic is data-dependent — frames and rounds come from the stats
	// hook, not the static frames field.
	for _, g := range gossipWorkloads(cfg) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sum, err := g.fn(xs)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		if haveWant && math.Float64bits(sum) != math.Float64bits(wantSum) {
			return nil, fmt.Errorf("%s: checksum %x, want %x (cluster merge not bit-identical)",
				g.name, math.Float64bits(sum), math.Float64bits(wantSum))
		}

		var failed error
		d := bench.MeasureMedian(cfg.trials, func() {
			if _, err := g.fn(xs); err != nil && failed == nil {
				failed = err
			}
		})
		if failed != nil {
			return nil, fmt.Errorf("%s: %w", g.name, failed)
		}
		frames, rounds := g.stats()
		report.Workloads = append(report.Workloads, bench.Workload{
			Name:                g.name,
			Workers:             g.workers,
			Backend:             core.KernelBackend(cfg.params),
			SecondsPerTrial:     d.Seconds(),
			AddsPerSec:          float64(cfg.count) / d.Seconds(),
			MallocsPerOp:        float64(after.Mallocs-before.Mallocs) / float64(cfg.count),
			FramesPerSec:        frames / d.Seconds(),
			RoundsToConvergence: rounds,
			Checksum:            sum,
		})
	}
	if err := report.FillSpeedups(); err != nil {
		return nil, err
	}
	report.MemBandwidthBytesPerSec = measureBandwidth(xs, cfg.trials)
	report.CeilingAddsPerSec = report.MemBandwidthBytesPerSec / 8
	return report, nil
}

// bandwidthSink keeps the compiler from eliding the bandwidth pass.
var bandwidthSink uint64

// measureBandwidth times a pure streaming read over the workload buffer —
// 64-bit loads folded with xor, no summation arithmetic at all — and
// returns the best bytes/sec across the trials. Best, not median: the pass
// measures the machine's ceiling, so cache-warm best-case is the honest
// roofline for the serial kernels, which walk the same buffer.
func measureBandwidth(xs []float64, trials int) float64 {
	words := make([]uint64, len(xs))
	for i, x := range xs {
		words[i] = math.Float64bits(x)
	}
	bytes := float64(len(words) * 8)
	best := math.MaxFloat64
	for t := 0; t < trials+1; t++ { // +1: first pass warms the cache
		var acc uint64
		start := time.Now()
		for _, w := range words {
			acc ^= w
		}
		elapsed := time.Since(start).Seconds()
		bandwidthSink += acc
		if t > 0 && elapsed < best {
			best = elapsed
		}
	}
	if best <= 0 || len(words) == 0 {
		return 0
	}
	return bytes / best
}

func printTable(r *bench.Report) {
	t := bench.Table{
		Title: fmt.Sprintf("benchsum: N=%d k=%d, %s summands, median of %d trials",
			r.HPLimbs, r.HPFrac, bench.N(r.Count), r.Trials),
		Headers: []string{"workload", "workers", "backend", "s/trial", "adds/sec", "speedup", "mallocs/op"},
	}
	for _, w := range r.Workloads {
		t.AddRow(w.Name, fmt.Sprintf("%d", w.Workers), w.Backend, bench.F(w.SecondsPerTrial),
			bench.F(w.AddsPerSec), bench.F(w.Speedup), bench.F(w.MallocsPerOp))
	}
	t.Fprint(os.Stdout)
	for _, w := range r.Workloads {
		if w.RoundsToConvergence > 0 {
			fmt.Printf("%s: %s gossip frames/sec, converged in %.0f rounds\n",
				w.Name, bench.N(int(w.FramesPerSec)), w.RoundsToConvergence)
		}
	}
	if r.CPUFeatures != "" {
		fmt.Printf("cpu features: %s\n", r.CPUFeatures)
	}
	if r.MemBandwidthBytesPerSec > 0 {
		fmt.Printf("memory-bandwidth ceiling: %s B/s streaming read = %s adds/sec upper bound (serial-super reaches %.0f%%)\n",
			bench.N(int(r.MemBandwidthBytesPerSec)), bench.N(int(r.CeilingAddsPerSec)),
			ceilingFraction(r)*100)
	}
}

// ceilingFraction is serial-super's adds/sec as a fraction of the measured
// memory-bandwidth ceiling (0 when either is absent).
func ceilingFraction(r *bench.Report) float64 {
	w := r.Lookup("serial-super")
	if w == nil || r.CeilingAddsPerSec <= 0 {
		return 0
	}
	return w.AddsPerSec / r.CeilingAddsPerSec
}
