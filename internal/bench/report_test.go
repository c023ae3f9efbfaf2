package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testReport() *Report {
	return &Report{
		Schema:      SumReportSchema,
		GoVersion:   "go1.24",
		GOOS:        "linux",
		GOARCH:      "amd64",
		CPUs:        8,
		GOMAXPROCS:  8,
		CPUFeatures: "adx,avx2,bmi2",
		HPLimbs:     6,
		HPFrac:      3,
		Count:       1024,
		Trials:      3,
		Baseline:    "serial-legacy",
		Workloads: []Workload{
			{Name: "serial-legacy", Workers: 1, SecondsPerTrial: 1, AddsPerSec: 1024, Speedup: 1, Checksum: 0.5, Backend: "generic"},
			{Name: "serial-super", Workers: 1, SecondsPerTrial: 0.25, AddsPerSec: 4096, Speedup: 4, Checksum: 0.5, Backend: "asm+avx2"},
			{Name: "omp-reduce", Workers: 1, SecondsPerTrial: 0.5, AddsPerSec: 2048, Speedup: 2, Checksum: 0.5, Backend: "asm+avx2"},
			{Name: "omp-reduce", Workers: 4, SecondsPerTrial: 0.125, AddsPerSec: 8192, Speedup: 8, Checksum: 0.5, Backend: "asm+avx2"},
		},
	}
}

// TestReadReportAcceptsV1 keeps the legacy artifact readable: one entry per
// name, no gomaxprocs field.
func TestReadReportAcceptsV1(t *testing.T) {
	const v1 = `{
  "schema": "repro/bench-sum/v1",
  "go_version": "go1.24.0",
  "goos": "linux",
  "goarch": "amd64",
  "cpus": 1,
  "hp_limbs": 6,
  "hp_frac_limbs": 3,
  "count": 1024,
  "trials": 3,
  "baseline": "serial-legacy",
  "workloads": [
    {"name": "serial-legacy", "workers": 1, "seconds_per_trial": 1,
     "adds_per_sec": 1024, "speedup": 1, "mallocs_per_op": 0, "checksum": 0.5}
  ]
}`
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := ReadReport(path)
	if err != nil {
		t.Fatalf("v1 report rejected: %v", err)
	}
	if r.Schema != SumReportSchemaV1 || r.GOMAXPROCS != 0 {
		t.Errorf("schema %q gomaxprocs %d", r.Schema, r.GOMAXPROCS)
	}
	// v1 forbids what v2 allows: the same name at two worker counts.
	r.Workloads = append(r.Workloads, Workload{
		Name: "serial-legacy", Workers: 4, SecondsPerTrial: 1,
		AddsPerSec: 1024, Speedup: 1, Checksum: 0.5,
	})
	if err := r.Validate(); err == nil {
		t.Error("v1 report with duplicate name validated")
	}
}

func TestLookupWorkers(t *testing.T) {
	r := testReport()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if w := r.LookupWorkers("omp-reduce", 4); w == nil || w.Speedup != 8 {
		t.Errorf("LookupWorkers(omp-reduce, 4) = %+v", w)
	}
	if w := r.LookupWorkers("omp-reduce", 2); w != nil {
		t.Errorf("unswept worker count found: %+v", w)
	}
	// Lookup finds some entry with the name; after WriteJSON's sort it is
	// the lowest worker count.
	path := filepath.Join(t.TempDir(), "v2.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if w := got.Lookup("omp-reduce"); w == nil || w.Workers != 1 {
		t.Errorf("Lookup after sort = %+v, want workers=1", w)
	}
}

func TestCompareReportsGuards(t *testing.T) {
	cur, committed := testReport(), testReport()
	if err := CompareReports(cur, committed, []string{"serial-super"}, 0.25); err != nil {
		t.Fatalf("identical reports: %v", err)
	}
	// Within tolerance: 20% drop on a guarded workload passes at 25%.
	cur.LookupWorkers("serial-super", 1).Speedup = 3.2
	if err := CompareReports(cur, committed, []string{"serial-super"}, 0.25); err != nil {
		t.Errorf("20%% drop failed a 25%% gate: %v", err)
	}
	cur.LookupWorkers("serial-super", 1).Speedup = 2.9
	if err := CompareReports(cur, committed, []string{"serial-super"}, 0.25); err == nil {
		t.Error("28% drop passed a 25% gate")
	}
	// A guarded workload missing from the current run fails; one missing
	// from the committed reference (not yet benchmarked back then) passes.
	cur = testReport()
	cur.Workloads = cur.Workloads[:1]
	if err := CompareReports(cur, committed, []string{"serial-super"}, 0.25); err == nil {
		t.Error("missing guarded workload passed")
	}
	if err := CompareReports(testReport(), committed, []string{"brand-new"}, 0.25); err != nil {
		t.Errorf("guard absent from committed reference should pass: %v", err)
	}
}

func TestCompareReportsMissingCommittedName(t *testing.T) {
	committed := testReport()
	// A committed workload name with no entry at all in the current run is
	// a hard error even when unguarded — a rename or deletion must not look
	// like a passing gate.
	cur := testReport()
	cur.Workloads = cur.Workloads[:2] // drop both omp-reduce entries
	err := CompareReports(cur, committed, nil, 0.25)
	if err == nil {
		t.Fatal("vanished committed workload passed the gate")
	}
	if !strings.Contains(err.Error(), `"omp-reduce"`) || !strings.Contains(err.Error(), "RetiredWorkloads") {
		t.Errorf("error does not name the workload and the allowlist: %v", err)
	}
	// The error is reported once per name, not once per (name, workers) row.
	if n := strings.Count(err.Error(), "missing from current run"); n != 1 {
		t.Errorf("missing name reported %d times, want 1: %v", n, err)
	}

	// Allowlisted names are exempt: that is how a workload retires.
	defer func(old []string) { RetiredWorkloads = old }(RetiredWorkloads)
	RetiredWorkloads = append(RetiredWorkloads, "omp-reduce")
	if err := CompareReports(cur, committed, nil, 0.25); err != nil {
		t.Errorf("retired workload still failed the gate: %v", err)
	}

	// A missing (name, workers) pair whose name is still present is fine:
	// the worker sweep includes NumCPU, which varies across machines.
	RetiredWorkloads = RetiredWorkloads[:len(RetiredWorkloads)-1]
	cur = testReport()
	cur.Workloads = cur.Workloads[:3] // keep omp-reduce workers=1, drop workers=4
	if err := CompareReports(cur, committed, nil, 0.25); err != nil {
		t.Errorf("machine-dependent worker count failed the gate: %v", err)
	}
}

func TestCompareReportsJoinsAllDrifts(t *testing.T) {
	committed := testReport()
	cur := testReport()
	// Two checksum drifts and one guarded speedup drop must all surface in
	// a single joined error, not just the first.
	cur.LookupWorkers("serial-legacy", 1).Checksum = 0.25
	cur.LookupWorkers("omp-reduce", 4).Checksum = 0.75
	cur.LookupWorkers("serial-super", 1).Speedup = 1
	err := CompareReports(cur, committed, []string{"serial-super"}, 0.25)
	if err == nil {
		t.Fatal("drifted reports passed")
	}
	for _, want := range []string{"serial-legacy", "omp-reduce", "serial-super"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %s drift: %v", want, err)
		}
	}
	if n := strings.Count(err.Error(), "checksum"); n != 2 {
		t.Errorf("%d checksum drifts reported, want 2: %v", n, err)
	}
}

// TestReadReportAcceptsV2 keeps the pre-backend artifact readable: v2
// entries carry no backend, and that is only an error under v3.
func TestReadReportAcceptsV2(t *testing.T) {
	r := testReport()
	r.Schema = SumReportSchemaV2
	r.CPUFeatures = ""
	for i := range r.Workloads {
		r.Workloads[i].Backend = ""
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("v2 report rejected: %v", err)
	}
}

// TestValidateBackend: v3 requires a known backend on every workload.
func TestValidateBackend(t *testing.T) {
	r := testReport()
	r.Workloads[0].Backend = ""
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Errorf("v3 workload without backend validated: %v", err)
	}
	r.Workloads[0].Backend = "sse9"
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "sse9") {
		t.Errorf("unknown backend validated: %v", err)
	}
}
