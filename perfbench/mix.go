package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/server"
)

// mix-audited: open loop at a ladder of fixed rates with seeded Poisson
// arrivals over procs connections. 70% of requests ingest one 64-value
// frame, 30% are certified reads, spread Zipf-style over 1024
// accumulators. The server runs 2-of-3 replicas with the audit journal and
// log on, cutting an audit record every mixAuditEvery as hpsumd
// -audit-interval does.
const (
	mixAccs       = 1024
	mixFrame      = 64
	mixPool       = 4096 // distinct pre-generated frames, reused round robin
	mixWriteShare = 0.7
	mixZipfS      = 1.0
	mixAuditEvery = time.Second
	mixRungLen    = 2 * mixAuditEvery
	// mixLimitMs is the latency limit on each rung's tail percentile.
	mixLimitMs = 250.0
)

// mixRefRate is the reference rate, in requests/s, the latency metrics are
// reported at. mixLadder is the offered load of the capacity search,
// lowest first; it starts above the reference rate.
const mixRefRate = 1000

var mixLadder = []float64{8000, 9000, 10000, 11000, 12000, 13000, 14000, 16000, 18000}

var mixParams = core.Params384

type mixEnv struct {
	svc    *service
	dir    string
	pool   [][]float64
	accs   []string
	ranks  []int     // Zipf rank -> accumulator index (a seeded permutation)
	zipf   []float64 // cumulative Zipf weights over ranks
	oracle []mixAcc
}

// mixAcc is the benchmark's view of one accumulator: the serial oracle of
// every acked value, how many writes were acked, and how many are in
// flight.
type mixAcc struct {
	mu       sync.Mutex
	oracle   *core.SuperAccumulator
	adds     uint64
	version  int
	inflight int
}

func setupMix(o opts) (*mixEnv, error) {
	r := rng.New(o.seed)
	env := &mixEnv{}
	for i := 0; i < mixPool; i++ {
		env.pool = append(env.pool, rng.UniformSet(r, mixFrame, -0.5, 0.5))
	}
	env.ranks = make([]int, mixAccs)
	for i := range env.ranks {
		env.ranks[i] = i
	}
	for i := len(env.ranks) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		env.ranks[i], env.ranks[j] = env.ranks[j], env.ranks[i]
	}
	var c float64
	for k := 0; k < mixAccs; k++ {
		c += 1 / math.Pow(float64(k+1), mixZipfS)
		env.zipf = append(env.zipf, c)
	}
	env.oracle = make([]mixAcc, mixAccs)
	for i := range env.oracle {
		env.oracle[i].oracle = core.NewSuper(mixParams)
	}

	dir, err := os.MkdirTemp(o.workdir, "mix-audit-")
	if err != nil {
		return nil, err
	}
	env.dir = dir
	srv := server.New(server.Config{Replicas: 3, Quorum: 2})
	if err := srv.EnableAudit(filepath.Join(dir, "frames.hpfj"), filepath.Join(dir, "audit.hpal")); err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	svc, err := startService(srv, nil)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env.svc = svc
	cl := &server.Client{Base: svc.base}
	for i := 0; i < mixAccs; i++ {
		name := fmt.Sprintf("acc%04d", i)
		if _, err := cl.Create(name, mixParams); err != nil {
			env.close()
			return nil, fmt.Errorf("create %s: %w", name, err)
		}
		env.accs = append(env.accs, name)
	}
	return env, nil
}

func (e *mixEnv) close() {
	e.svc.close()
	_ = e.svc.srv.CloseAudit() // the files are deleted next
	os.RemoveAll(e.dir)
}

// mixReq is one scheduled request.
type mixReq struct {
	due   time.Duration // from the rung's start
	write bool
	acc   int
	frame int
}

// schedule draws a rung's seeded Poisson arrivals at rate for d.
func (e *mixEnv) schedule(r *rng.Source, rate float64, d time.Duration, frame *int) []mixReq {
	var reqs []mixReq
	var t float64
	for {
		t += -math.Log(1-r.Float64()) / rate
		if t >= d.Seconds() {
			return reqs
		}
		k := sort.SearchFloat64s(e.zipf, r.Float64()*e.zipf[len(e.zipf)-1])
		q := mixReq{due: time.Duration(t * float64(time.Second)), write: r.Float64() < mixWriteShare,
			acc: e.ranks[min(k, mixAccs-1)]}
		if q.write {
			q.frame = *frame % mixPool
			*frame++
		}
		reqs = append(reqs, q)
	}
}

// mixDone is one finished request.
type mixDone struct {
	write   bool
	ok      bool
	latency time.Duration // from the due time
	wall    time.Duration // from the send
	late    time.Duration // generator oversleep
	start   time.Duration // send time from the rung's start
	due     time.Duration
}

// rung runs one schedule open loop over procs connections and returns the
// finished requests in schedule order.
func (e *mixEnv) rung(rep *report, reqs []mixReq, d time.Duration, procs int, transport *http.Transport, rec *recorder) []mixDone {
	done := make([]mixDone, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	var cuts, cutFails int
	// Audit records are cut at the middle of each mixAuditEvery of the
	// rung, as hpsumd -audit-interval cuts them, so every rung of the same
	// length carries the same number of cuts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for at := mixAuditEvery / 2; at < d; at += mixAuditEvery {
			time.Sleep(time.Until(start.Add(at)))
			cuts++
			sp := rec.start(spanCtx{}, "audit.record")
			_, err := e.svc.srv.AuditRecord("periodic")
			sp.end()
			if err != nil {
				cutFails++
				fmt.Fprintf(os.Stderr, "perfbench: audit record: %v\n", err)
			}
		}
	}()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc, st := clientHTTP(transport, rec)
			cl := &server.Client{Base: e.svc.base, HTTP: hc}
			var free time.Time
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				due := start.Add(q.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				t0 := time.Now()
				var ok bool
				if q.write {
					ok = e.write(rep, cl, st, rec, q)
				} else {
					ok = e.read(rep, cl, st, rec, q)
				}
				t1 := time.Now()
				lat, late := dueLatency(due, free, t0, t1)
				free = t1
				done[i] = mixDone{write: q.write, ok: ok, latency: lat, wall: t1.Sub(t0), late: late,
					start: t0.Sub(start), due: q.due}
			}
		}()
	}
	wg.Wait()
	rep.attempted += cuts
	rep.failed += cutFails
	return done
}

func (e *mixEnv) write(rep *report, cl *server.Client, st *spanTransport, rec *recorder, q mixReq) bool {
	a := &e.oracle[q.acc]
	a.mu.Lock()
	a.inflight++
	a.mu.Unlock()
	vals := e.pool[q.frame]
	sp := rec.start(spanCtx{}, "client.write")
	st.setParent(sp.ctx())
	stats, err := cl.Stream(e.accs[q.acc], vals)
	sp.end()
	a.mu.Lock()
	for _, x := range vals[:stats.Values] {
		a.oracle.Add(x)
	}
	a.adds += uint64(stats.Values)
	a.version++
	a.inflight--
	a.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write %s: %v\n", e.accs[q.acc], err)
	}
	// A 429 the client absorbed by retrying is still a refusal.
	return err == nil && stats.Retries == 0
}

// read is a certified read. When no write to the accumulator was in flight
// or acked while it ran, it must equal the oracle bit for bit; otherwise it
// must at least include every value acked before it started.
func (e *mixEnv) read(rep *report, cl *server.Client, st *spanTransport, rec *recorder, q mixReq) bool {
	a := &e.oracle[q.acc]
	a.mu.Lock()
	v0, in0, adds0 := a.version, a.inflight, a.adds
	a.mu.Unlock()
	sp := rec.start(spanCtx{}, "client.read")
	st.setParent(sp.ctx())
	info, err := cl.Get(e.accs[q.acc])
	sp.end()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: read %s: %v\n", e.accs[q.acc], err)
		return false
	}
	a.mu.Lock()
	quiet := in0 == 0 && a.inflight == 0 && a.version == v0
	want, merr := a.oracle.Sum().MarshalText()
	a.mu.Unlock()
	switch {
	case info.Cert == nil:
		rep.checkFailed("read %s served without a certificate", e.accs[q.acc])
	case merr != nil:
		rep.checkFailed("oracle %s: %v", e.accs[q.acc], merr)
	case quiet && info.HP != string(want):
		rep.checkFailed("read %s = %s, want %s", e.accs[q.acc], info.HP, want)
	case info.Adds < adds0:
		rep.checkFailed("read %s saw %d adds, %d were acked before it", e.accs[q.acc], info.Adds, adds0)
	}
	return true
}

// rungStats summarizes a rung: write, read and all-request latencies from
// the due time, whether it met the limit, and its tail percentile.
type rungStats struct {
	rate               float64
	all, writes, reads []float64 // ms
	lates              []float64 // ms
	walls              []float64 // ms, writes only, from the send
	failed, attempted  int
	tailMs             float64
	pass               bool
}

func summarizeRung(rate float64, done []mixDone) rungStats {
	s := rungStats{rate: rate, attempted: len(done)}
	for _, d := range done {
		l := ms(d.latency)
		if !d.ok {
			s.failed++
			l = math.Inf(1) // a failed or refused request misses every limit
		}
		s.all = append(s.all, l)
		if d.write {
			s.writes = append(s.writes, l)
			s.walls = append(s.walls, ms(d.wall))
		} else {
			s.reads = append(s.reads, l)
		}
		s.lates = append(s.lates, ms(d.late))
	}
	s.tailMs, _ = tail(s.all)
	s.pass = s.tailMs <= mixLimitMs && !backlogged(done)
	return s
}

// backlogged reports a growing queue: over the rung's last tenth, requests
// went out later than the latency limit behind their due times on average.
func backlogged(done []mixDone) bool {
	last := done[len(done)-len(done)/10:]
	var lag []float64
	for _, d := range last {
		lag = append(lag, ms(d.start-d.due))
	}
	return mean(lag) > mixLimitMs
}

// maxRate is the highest rate meeting the limit, interpolated on the tail
// latency between the last passing rung and the first failing one, so it
// moves continuously rather than a whole rung at a time.
func maxRate(rungs []rungStats) float64 {
	best := 0.0
	for i, r := range rungs {
		if !r.pass {
			if i == 0 {
				return 0
			}
			p := rungs[i-1]
			frac := 0.0
			if !math.IsInf(r.tailMs, 1) && r.tailMs > p.tailMs {
				frac = math.Min(1, (mixLimitMs-p.tailMs)/(r.tailMs-p.tailMs))
			}
			return p.rate + frac*(r.rate-p.rate)
		}
		best = r.rate
	}
	return best
}

func runMix(o opts) (*report, error) {
	rep := &report{}
	env, setups, err := repeatSetup(func() (*mixEnv, error) { return setupMix(o) },
		func(e *mixEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep.setups = setups
	transport := newTransport(o.procs)
	defer transport.CloseIdleConnections()
	sched := rng.New(blockSeed(o.seed, mixAccs))
	frame := 0
	journal := filepath.Join(env.dir, "frames.hpfj")
	var untracedWrite float64 // mean write wall over the untraced phase's rungs, ns

	measure := func(rec *recorder, secs float64) (map[string]float64, error) {
		env.svc.rec.Store(rec)
		defer env.svc.rec.Store(nil)
		before, err := readTelemetry()
		if err != nil {
			return nil, err
		}
		j0, err := os.Stat(journal)
		if err != nil {
			return nil, err
		}

		// Rungs last whole audit intervals: the reference rung a quarter of
		// the time, then ladder rungs of mixRungLen while time remains.
		refLen := time.Duration(max(1, math.Round(secs/4))) * mixAuditEvery
		ladderEnd := time.Now().Add(time.Duration(secs * float64(time.Second)))
		run := func(rate float64, d time.Duration) rungStats {
			rs := summarizeRung(rate, env.rung(rep, env.schedule(sched, rate, d, &frame), d, o.procs, transport, rec))
			rep.attempted += rs.attempted
			rep.failed += rs.failed
			return rs
		}
		ref := run(mixRefRate, refLen)
		rungs := []rungStats{ref}
		for _, rate := range mixLadder {
			if time.Now().Add(mixRungLen).After(ladderEnd) {
				break
			}
			rs := run(rate, mixRungLen)
			rungs = append(rungs, rs)
			if !rs.pass {
				break
			}
		}

		m := map[string]float64{slotWork: maxRate(rungs), slotOp: median(ref.all)}
		if rec == nil {
			var walls []float64
			for _, r := range rungs {
				walls = append(walls, r.walls...)
			}
			untracedWrite = mean(walls) * 1e6
			wTail, wPct := tail(ref.writes)
			rTail, rPct := tail(ref.reads)
			rep.name("write_p50_ms", median(ref.writes), "ms")
			rep.name(fmt.Sprintf("write_p%.4g_ms", wPct), wTail, "ms")
			rep.name("read_p50_ms", median(ref.reads), "ms")
			rep.name(fmt.Sprintf("read_p%.4g_ms", rPct), rTail, "ms")
			opTail, pct := tail(ref.all)
			rep.name(fmt.Sprintf("all_p%.4g_ms", pct), opTail, "ms")
			rep.name("mix_max_ops_per_s", m[slotWork], "1/s")
			for _, r := range rungs {
				fmt.Printf("mix-audited rung %6.0f/s: p50 %8.3f ms, tail %8.3f ms, late p50 %6.3f ms, write wall p50 %6.3f ms, failed %d of %d, pass %v\n",
					r.rate, median(r.all), r.tailMs, median(r.lates), median(r.walls), r.failed, r.attempted, r.pass)
			}
			return m, nil
		}
		after, err := readTelemetry()
		if err != nil {
			return nil, err
		}
		j1, err := os.Stat(journal)
		if err != nil {
			return nil, err
		}
		a := rec.analyze()
		values := after.since(before, "server_values_total")
		serviceLayers(rep.layers, a, before, after, values)
		L := rep.layers
		L["audit.record_ms"] = a.layer("audit.record").meanMs()
		L["audit.journal_bytes_per_value"] = ratio(float64(j1.Size()-j0.Size()), values)
		var lates []float64
		for _, r := range rungs {
			lates = append(lates, r.lates...)
		}
		L["loadgen.late_p99_ms"], _ = tail(lates)
		L["trace.unaccounted_share"] = unaccounted(a, "client.write", untracedWrite)
		return m, nil
	}
	if err := phases(o, rep, measure); err != nil {
		return nil, err
	}

	// Quiescent final check: every written accumulator, bit for bit.
	cl := &server.Client{Base: env.svc.base, HTTP: &http.Client{Transport: transport}}
	for i := range env.oracle {
		a := &env.oracle[i]
		if a.version == 0 {
			continue
		}
		rep.attempted++
		info, err := cl.Get(env.accs[i])
		want, merr := a.oracle.Sum().MarshalText()
		switch {
		case err != nil:
			rep.checkFailed("final read %s: %v", env.accs[i], err)
		case merr != nil:
			rep.checkFailed("oracle %s: %v", env.accs[i], merr)
		case info.HP != string(want):
			rep.checkFailed("final read %s = %s, want %s", env.accs[i], info.HP, want)
		}
	}
	return rep, nil
}
