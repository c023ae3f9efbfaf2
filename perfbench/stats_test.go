package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		value, pc float64
	}{
		{1000, 990, 99}, // p99: 991..1000 lie beyond
		{100, 90, 90},   // p90
		{21, 11, 11 * 100.0 / 21},
		{20, 10.5, 50}, // the qualifying percentile would sit below the median
		{5, 3, 50},
		{0, 0, 50},
	} {
		v, pc := tail(seq(tc.n))
		if v != tc.value || math.Abs(pc-tc.pc) > 1e-9 {
			t.Errorf("tail(1..%d) = %v at p%v, want %v at p%v", tc.n, v, pc, tc.value, tc.pc)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if tc.n >= 2*minBeyond+1 && beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if xs[0] != 3 || xs[3] != 4 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{10, 30}}, 80},
		{[]interval{{10, 30}, {20, 40}}, 70},           // overlap counted once
		{[]interval{{10, 30}, {50, 60}}, 70},           // disjoint
		{[]interval{{-20, 10}, {90, 130}}, 80},         // clipped to the parent
		{[]interval{{0, 100}, {10, 20}}, 0},            // fully covered
		{[]interval{{40, 50}, {10, 20}, {15, 45}}, 60}, // unsorted chain
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("selfTime(%v) = %d, want %d", tc.kids, got, tc.want)
		}
	}
}

func TestBlockingPathChargesTheSlowestBranch(t *testing.T) {
	// A reduce: two parallel folds, then a combine.
	a := &analysis{spans: []spanRec{
		{name: "omp.reduce", op: 1, id: 1, start: 0, end: 100},
		{name: "core.fold", op: 1, id: 2, parent: 1, start: 5, end: 80},
		{name: "core.fold", op: 1, id: 3, parent: 1, start: 6, end: 70},
		{name: "core.combine", op: 1, id: 4, parent: 1, start: 85, end: 95},
	}}
	a.children = map[uint64][]spanRec{1: a.spans[1:]}
	per, ops, wall := a.blocking("omp.reduce")
	if ops != 1 || wall != 100 {
		t.Fatalf("ops %d wall %d, want 1 and 100", ops, wall)
	}
	want := map[string]int64{"omp.reduce": 5 + 5 + 5, "core.fold": 75, "core.combine": 10}
	var sum int64
	for k, v := range per {
		sum += v
		if v != want[k] {
			t.Errorf("%s on path = %d, want %d", k, v, want[k])
		}
	}
	if sum != wall {
		t.Errorf("path self times sum to %d, want the wall %d", sum, wall)
	}
}

func TestDueLatencyCountsQueueingButNotAsLateness(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Due at 10, connection busy until 25, sent at 26, done at 30: the
	// request waited 15 ms behind its connection, which is latency, and
	// the generator overslept 1 ms, which is lateness.
	lat, late := dueLatency(at(10), at(25), at(26), at(30))
	if lat != 20*time.Millisecond || late != time.Millisecond {
		t.Errorf("busy connection: latency %v late %v, want 20ms and 1ms", lat, late)
	}
	// Idle connection: lateness is measured from the due time.
	lat, late = dueLatency(at(10), time.Time{}, at(12), at(13))
	if lat != 3*time.Millisecond || late != 2*time.Millisecond {
		t.Errorf("idle connection: latency %v late %v, want 3ms and 2ms", lat, late)
	}
	// Sent early (never happens, but must not read as negative lateness).
	if _, late = dueLatency(at(10), time.Time{}, at(9), at(11)); late != 0 {
		t.Errorf("early send: late %v, want 0", late)
	}
}

func TestRungVerdicts(t *testing.T) {
	fast := func(n int, ok bool) []mixDone {
		ds := make([]mixDone, n)
		for i := range ds {
			ds[i] = mixDone{ok: ok, latency: time.Millisecond, write: i%2 == 0,
				due: time.Duration(i) * time.Millisecond, start: time.Duration(i) * time.Millisecond}
		}
		return ds
	}
	if s := summarizeRung(1000, fast(100, true)); !s.pass || s.failed != 0 {
		t.Errorf("fast rung: pass %v failed %d", s.pass, s.failed)
	}
	// Refused requests miss every limit: 11 failures push them past the tail.
	ds := fast(100, true)
	for i := 0; i < 11; i++ {
		ds[i].ok = false
	}
	if s := summarizeRung(1000, ds); s.pass || s.failed != 11 || !math.IsInf(s.tailMs, 1) {
		t.Errorf("refusals: pass %v failed %d tail %v", s.pass, s.failed, s.tailMs)
	}
	// A growing backlog fails the rung even when latencies look fine.
	ds = fast(100, true)
	for i := 90; i < 100; i++ {
		ds[i].start = ds[i].due + 2*time.Duration(mixLimitMs*float64(time.Millisecond))
	}
	if s := summarizeRung(1000, ds); s.pass {
		t.Errorf("backlogged rung passed")
	}
}

func TestMaxRateInterpolatesBetweenRungs(t *testing.T) {
	pass := func(rate, tailMs float64) rungStats { return rungStats{rate: rate, tailMs: tailMs, pass: true} }
	fail := func(rate, tailMs float64) rungStats { return rungStats{rate: rate, tailMs: tailMs} }
	lim := mixLimitMs
	for _, tc := range []struct {
		rungs []rungStats
		want  float64
	}{
		{[]rungStats{pass(1000, 1), pass(2000, 2)}, 2000}, // never failed: the top rung
		{[]rungStats{fail(1000, 2*lim)}, 0},
		{[]rungStats{pass(1000, lim/2), fail(2000, lim*1.5)}, 1500},
		{[]rungStats{pass(1000, 1), fail(2000, math.Inf(1))}, 1000},
	} {
		if got := maxRate(tc.rungs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("maxRate(%+v) = %v, want %v", tc.rungs, got, tc.want)
		}
	}
}

func TestRatioBases(t *testing.T) {
	if r := ratio(3, 0); r != 0 {
		t.Errorf("ratio over nothing attempted = %v, want 0", r)
	}
	if r := maxMinOverMean([]float64{90, 110}); math.Abs(r-0.2) > 1e-12 {
		t.Errorf("imbalance = %v, want 0.2", r)
	}
	// Busy ratio: refused frames over frames attempted (accepted + refused),
	// and queue wait: the mean of only the observations in the window.
	mk := func(frames, rejected, sum, count float64) telem {
		raw := map[string]any{
			"server_frames_total":          frames,
			"server_rejected_adds_total":   rejected,
			"server_drain_latency_seconds": map[string]any{"sum": sum, "count": count},
		}
		t := telem{}
		for k, v := range raw {
			b, _ := json.Marshal(v)
			t[k] = b
		}
		return t
	}
	before, after := mk(100, 5, 1.0, 10), mk(190, 15, 1.5, 20)
	L := map[string]float64{}
	serviceLayers(L, (*recorder)(nil).analyze(), before, after, 1)
	if got := L["server.busy_ratio"]; math.Abs(got-10.0/100) > 1e-12 {
		t.Errorf("busy_ratio = %v, want 10/(90+10)", got)
	}
	if got := L["server.queue_wait_ms"]; math.Abs(got-50) > 1e-9 {
		t.Errorf("queue_wait_ms = %v, want 0.5s/10 = 50ms", got)
	}
}

func TestCentralMeanSmoothsQuantizedSamples(t *testing.T) {
	// Half the bursts take 3 rounds and half 4: the median sits on one
	// level or the other, the central mean between them.
	xs := []float64{150, 150, 150, 150, 200, 200, 200, 200}
	if got := centralMean(xs); got != 175 {
		t.Errorf("centralMean = %v, want 175", got)
	}
	if got := centralMean([]float64{1, 2, 3, 1000}); got != 2.5 {
		t.Errorf("centralMean kept an outlier: %v", got)
	}
}

func TestWindowRateTakesTheMedianWindow(t *testing.T) {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	ops := []streamOp{
		{end: sec(0.5), values: 100}, {end: sec(0.9), values: 100}, // window 0: 200/s
		{end: sec(1.5), values: 10},                                // window 1 stalled: 10/s
		{end: sec(2.2), values: 150}, {end: sec(2.8), values: 150}, // window 2: 300/s
		{end: sec(3.1), values: 999}, // partial last window: ignored
	}
	if got := windowRate(ops, sec(3.2)); got != 200 {
		t.Errorf("windowRate = %v, want the median window, 200", got)
	}
	if got := windowRate(ops[:1], sec(0.5)); got != 200 {
		t.Errorf("short run: windowRate = %v, want 100 values / 0.5 s", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, m)
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}
