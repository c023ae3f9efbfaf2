package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/server"
)

// ingest-bulk: the service's bulk path, closed loop. procs clients each
// Client.Stream one POST of 64 frames × 4096 §IV.B uniform [-0.5, 0.5]
// values at a time into one accumulator over loopback TCP, then read it.
const (
	ingestFrameLen  = 4096
	ingestReqFrames = 64
	ingestBatch     = ingestFrameLen * ingestReqFrames
	ingestBatches   = 8 // distinct POST bodies per client, sent round robin
	ingestAcc       = "bulk"
)

var ingestParams = core.Params384

type ingestEnv struct {
	svc     *service
	batches [][]float64
}

func setupIngest(seed uint64, procs int) (*ingestEnv, error) {
	r := rng.New(seed)
	env := &ingestEnv{}
	for i := 0; i < procs*ingestBatches; i++ {
		env.batches = append(env.batches, rng.UniformSet(r, ingestBatch, -0.5, 0.5))
	}
	svc, err := startService(server.New(server.Config{}), nil)
	if err != nil {
		return nil, err
	}
	env.svc = svc
	cl := &server.Client{Base: svc.base}
	if _, err := cl.Create(ingestAcc, ingestParams); err != nil {
		svc.close()
		return nil, fmt.Errorf("create: %w", err)
	}
	return env, nil
}

// streamOp is one finished Client.Stream call.
type streamOp struct {
	end    time.Duration // from the phase's start
	wall   time.Duration
	values int
}

// ingestWindow is the length of the windows ingest_values_per_s takes its
// median over, so a stall of a second or two shifts it little.
const ingestWindow = time.Second

// windowRate is the median over whole windows of the values acked per
// second, each operation counted in the window it finished in.
func windowRate(ops []streamOp, elapsed time.Duration) float64 {
	n := int(elapsed / ingestWindow)
	if n == 0 {
		var v int
		for _, op := range ops {
			v += op.values
		}
		return float64(v) / elapsed.Seconds()
	}
	sums := make([]float64, n)
	for _, op := range ops {
		if w := int(op.end / ingestWindow); w < n {
			sums[w] += float64(op.values)
		}
	}
	for w := range sums {
		sums[w] /= ingestWindow.Seconds()
	}
	return median(sums)
}

func runIngest(o opts) (*report, error) {
	rep := &report{}
	env, setups, err := repeatSetup(func() (*ingestEnv, error) { return setupIngest(o.seed, o.procs) },
		func(e *ingestEnv) { e.svc.close() })
	if err != nil {
		return nil, err
	}
	defer env.svc.close()
	rep.setups = setups

	// The reference: each batch's exact sum, computed once outside setup.
	sums := make([]*core.HP, len(env.batches))
	for i, b := range env.batches {
		if sums[i], err = core.SumHP(ingestParams, b); err != nil {
			return nil, err
		}
	}
	oracle := core.NewAccumulator(ingestParams)
	var oracleMu sync.Mutex
	transport := newTransport(o.procs)
	defer transport.CloseIdleConnections()
	var untracedOp float64 // mean Stream wall of the untraced phase, ns

	measure := func(rec *recorder, secs float64) (map[string]float64, error) {
		env.svc.rec.Store(rec)
		defer env.svc.rec.Store(nil)
		before, err := readTelemetry()
		if err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)

		ops := make([][]streamOp, o.procs)
		fails := make([]int, o.procs)
		start := time.Now()
		deadline := start.Add(time.Duration(secs * float64(time.Second)))
		var wg sync.WaitGroup
		for g := 0; g < o.procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				hc, st := clientHTTP(transport, rec)
				cl := &server.Client{Base: env.svc.base, HTTP: hc, FrameLen: ingestFrameLen, ReqFrames: ingestReqFrames}
				for i := 0; time.Now().Before(deadline); i++ {
					bi := g*ingestBatches + i%ingestBatches
					batch := env.batches[bi]
					sp := rec.start(spanCtx{}, "client.stream")
					st.setParent(sp.ctx())
					t := time.Now()
					stats, err := cl.Stream(ingestAcc, batch)
					wall := time.Since(t)
					sp.end()
					oracleMu.Lock()
					if err == nil && stats.Values == len(batch) {
						oracle.AddHP(sums[bi])
					} else {
						// Only the acked frames count: they are a prefix.
						for _, x := range batch[:stats.Values] {
							oracle.Add(x)
						}
					}
					oracleMu.Unlock()
					if err != nil {
						fails[g]++
						fmt.Fprintf(os.Stderr, "perfbench: stream: %v\n", err)
						continue
					}
					ops[g] = append(ops[g], streamOp{time.Since(start), wall, stats.Values})
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)

		var walls []float64
		var all []streamOp
		values := 0
		for g := range ops {
			for _, op := range ops[g] {
				walls = append(walls, float64(op.wall))
				values += op.values
			}
			all = append(all, ops[g]...)
			rep.attempted += len(ops[g]) + fails[g]
			rep.failed += fails[g]
		}
		checkRead(rep, env.svc.base, ingestAcc, oracle, &oracleMu)

		rate := windowRate(all, elapsed)
		m := map[string]float64{slotWork: rate, slotOp: median(walls) / 1e6}
		if rec == nil {
			untracedOp = mean(walls)
			opTail, pct := tail(walls)
			rep.name("ingest_values_per_s", rate, "1/s")
			rep.name("stream_p50_ms", median(walls)/1e6, "ms")
			rep.name(fmt.Sprintf("stream_p%.4g_ms", pct), opTail/1e6, "ms")
			return m, nil
		}
		after, err := readTelemetry()
		if err != nil {
			return nil, err
		}
		a := rec.analyze()
		serviceLayers(rep.layers, a, before, after, float64(values))
		rep.layers["server.allocs_per_value"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(values))
		rep.layers["trace.unaccounted_share"] = unaccounted(a, "client.stream", untracedOp)
		return m, nil
	}
	if err := phases(o, rep, measure); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkRead reads acc through the public client and compares it bit for
// bit with the serial oracle of everything acked. A mismatch or a failed
// read counts as a failed operation.
func checkRead(rep *report, base, acc string, oracle *core.Accumulator, mu *sync.Mutex) {
	rep.attempted++
	info, err := (&server.Client{Base: base}).Get(acc)
	mu.Lock()
	want, merr := oracle.Sum().MarshalText()
	mu.Unlock()
	switch {
	case err != nil:
		rep.checkFailed("read %s: %v", acc, err)
	case merr != nil:
		rep.checkFailed("oracle %s: %v", acc, merr)
	case info.HP != string(want):
		rep.checkFailed("read %s = %s, want %s", acc, info.HP, want)
	}
}

// serviceLayers fills the client and server layer metrics shared by the
// service workloads from one traced phase: span self times per value
// ingested, and the program's own counters read through telemetry.
func serviceLayers(L map[string]float64, a *analysis, before, after telem, values float64) {
	L["client.encode_ns_per_value"] = ratio(float64(a.layer("client.stream").self), values)
	L["client.roundtrip_ms"] = a.layer("client.roundtrip").meanMs()
	L["server.body_wait_ns_per_value"] = ratio(float64(a.layer("server.body_wait").total), values)
	L["server.handler_self_ns_per_value"] = ratio(float64(a.layer("server.write").self), values)
	L["server.write_handler_ms"] = a.layer("server.write").meanMs()
	L["server.read_handler_ms"] = a.layer("server.read").meanMs()
	L["server.queue_wait_ms"] = after.histMeanSince(before, "server_drain_latency_seconds") * 1e3
	rejected := after.since(before, "server_rejected_adds_total")
	L["server.busy_ratio"] = ratio(rejected, rejected+after.since(before, "server_frames_total"))
	L["server.replica_divergence"] = after.since(before, "server_replica_divergence_total")
}

// unaccounted compares the blocking-path self times of the traced
// operations rooted at root with the untraced phase's mean wall time for
// the same operation: the share of the end-to-end time the layers do not
// explain (negative when the traced operations ran longer).
func unaccounted(a *analysis, root string, untracedMean float64) float64 {
	perLayer, ops, _ := a.blocking(root)
	var onPath int64
	for _, v := range perLayer {
		onPath += v
	}
	return 1 - ratio(float64(onPath)/float64(max(ops, 1)), untracedMean)
}
