package main

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

func smallConfig() config {
	return config{
		params: core.Params384,
		count:  4096,
		trials: 2,
		sweep:  []int{1, 3},
		seed:   1,
	}
}

// TestRunProducesValidReport exercises the whole runner at a CI-friendly
// size: every workload must execute at every swept worker count, validate,
// and agree on the checksum bit-for-bit.
func TestRunProducesValidReport(t *testing.T) {
	r, err := run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serial-legacy", "serial-fused", "serial-super"} {
		if r.LookupWorkers(name, 1) == nil {
			t.Errorf("workload %q missing from report", name)
		}
	}
	for _, name := range []string{
		"omp-reduce", "atomic-xadd", "atomic-cas", "atomic-batch", "scan-inclusive",
	} {
		for _, workers := range smallConfig().sweep {
			if r.LookupWorkers(name, workers) == nil {
				t.Errorf("workload %q workers=%d missing from report", name, workers)
			}
		}
	}
	want := r.Lookup(baselineName).Checksum
	for _, w := range r.Workloads {
		if math.Float64bits(w.Checksum) != math.Float64bits(want) {
			t.Errorf("%s workers=%d checksum %g, want %g", w.Name, w.Workers, w.Checksum, want)
		}
	}
	if base := r.Lookup(baselineName); base.Speedup != 1 {
		t.Errorf("baseline speedup %g", base.Speedup)
	}
	if r.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs %d not recorded", r.GOMAXPROCS)
	}
}

// TestWorkerSweep pins the sweep shape: 1/2/4/max, deduplicated, sorted,
// capped at max.
func TestWorkerSweep(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1, 2, 4}},
		{2, []int{1, 2, 4}},
		{3, []int{1, 2, 3, 4}},
		{4, []int{1, 2, 4}},
		{8, []int{1, 2, 4, 8}},
		{0, []int{1, 2, 4}},
	}
	for _, c := range cases {
		got := workerSweep(c.max)
		if len(got) != len(c.want) {
			t.Errorf("workerSweep(%d) = %v, want %v", c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("workerSweep(%d) = %v, want %v", c.max, got, c.want)
				break
			}
		}
	}
}

// TestReportRoundTrip writes and re-reads the JSON artifact, which also
// covers the CI schema check end to end.
func TestReportRoundTrip(t *testing.T) {
	r, err := run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sum.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := bench.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != r.Count || len(got.Workloads) != len(r.Workloads) {
		t.Errorf("round trip lost data: count %d/%d, workloads %d/%d",
			got.Count, r.Count, len(got.Workloads), len(r.Workloads))
	}
}

// TestRegressionGate drives the -against comparison the CI bench job runs:
// a re-run of the same configuration passes, a checksum flip or a guarded
// speedup collapse fails.
func TestRegressionGate(t *testing.T) {
	committed, err := run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur, err := run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic workload, exact arithmetic: a fresh run must gate clean
	// regardless of timing noise in the unguarded workloads.
	if err := bench.CompareReports(cur, committed, nil, maxSpeedupDrop); err != nil {
		t.Fatalf("identical rerun failed the gate: %v", err)
	}

	flipped := *committed
	flipped.Workloads = append([]bench.Workload(nil), committed.Workloads...)
	flipped.Workloads[0].Checksum = math.Nextafter(flipped.Workloads[0].Checksum, 2)
	if err := bench.CompareReports(cur, &flipped, nil, maxSpeedupDrop); err == nil {
		t.Error("checksum drift passed the gate")
	}

	slow := *cur
	slow.Workloads = append([]bench.Workload(nil), cur.Workloads...)
	for i := range slow.Workloads {
		if slow.Workloads[i].Name == "serial-super" {
			slow.Workloads[i].Speedup /= 10
		}
	}
	if err := bench.CompareReports(&slow, committed, guardedWorkloads, maxSpeedupDrop); err == nil {
		t.Error("10x speedup drop on a guarded workload passed the gate")
	}

	other := *committed
	other.Count = committed.Count * 2
	if err := bench.CompareReports(cur, &other, nil, maxSpeedupDrop); err == nil {
		t.Error("mismatched counts compared as if comparable")
	}
}

// TestValidateRejectsBrokenReports pins the validator's failure modes so a
// CI schema bump or field rename cannot pass silently.
func TestValidateRejectsBrokenReports(t *testing.T) {
	fresh := func() *bench.Report {
		r, err := run(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := map[string]func(*bench.Report){
		"wrong schema":     func(r *bench.Report) { r.Schema = "repro/bench-sum/v0" },
		"no workloads":     func(r *bench.Report) { r.Workloads = nil },
		"missing baseline": func(r *bench.Report) { r.Baseline = "nope" },
		"dup workload":     func(r *bench.Report) { r.Workloads = append(r.Workloads, r.Workloads[0]) },
		"zero throughput":  func(r *bench.Report) { r.Workloads[0].AddsPerSec = 0 },
		"bad format":       func(r *bench.Report) { r.HPFrac = r.HPLimbs },
		"no gomaxprocs":    func(r *bench.Report) { r.GOMAXPROCS = 0 },
	}
	for name, breakIt := range cases {
		r := fresh()
		breakIt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken report", name)
		}
	}
}
