package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
)

// SumReportSchema identifies the BENCH_sum.json layout. Bump the suffix on
// any incompatible field change so CI's schema check fails loudly instead
// of silently comparing mismatched reports.
//
// v3 (current): adds the report-level cpu_features string (the detected
// kernel-relevant CPU features, e.g. "adx,avx2,bmi2") and a per-workload
// backend field naming the kernel lane the workload dispatched to
// ("asm+avx2", "asm", "avx2", or "generic") — a committed number is
// meaningless without knowing which kernels produced it.
//
// v2: adds the gomaxprocs field and a per-workload worker-count sweep — a
// workload name may appear once per worker count, so entries are keyed by
// (name, workers).
//
// v1: one entry per workload name. ReadReport still accepts v1 and v2
// files so older committed artifacts remain comparable.
const (
	SumReportSchema   = "repro/bench-sum/v3"
	SumReportSchemaV2 = "repro/bench-sum/v2"
	SumReportSchemaV1 = "repro/bench-sum/v1"
)

// Workload is one measured configuration in a summation benchmark report.
type Workload struct {
	// Name identifies the code path, e.g. "serial-fused" or "atomic-cas".
	Name string `json:"name"`
	// Workers is the thread/worker count used (1 for serial paths). Under
	// schema v2 the same Name may recur with different worker counts.
	Workers int `json:"workers"`
	// SecondsPerTrial is the median wall time of one full pass over the
	// input.
	SecondsPerTrial float64 `json:"seconds_per_trial"`
	// AddsPerSec is Count/SecondsPerTrial — the headline throughput.
	AddsPerSec float64 `json:"adds_per_sec"`
	// Speedup is AddsPerSec relative to the report's Baseline workload.
	Speedup float64 `json:"speedup"`
	// MallocsPerOp is heap allocations per input element during one trial
	// (mallocs, not bytes), measured from runtime.MemStats deltas. The
	// steady-state hot paths are required to hold this at ~0.
	MallocsPerOp float64 `json:"mallocs_per_op"`
	// FramesPerSec is the wire-frame throughput for workloads that stream
	// through the network service (cmd/hpsumd's ingest path) or the gossip
	// layer; zero and omitted for in-process paths.
	FramesPerSec float64 `json:"frames_per_sec,omitempty"`
	// RoundsToConvergence is, for gossip workloads, the number of gossip
	// rounds the slowest node needed before every node's certified read
	// agreed bit-for-bit (from the last timed pass). Zero and omitted for
	// non-gossip workloads. Informational — CompareReports never gates on
	// it, as the count is scheduling-dependent.
	RoundsToConvergence float64 `json:"rounds_to_convergence,omitempty"`
	// Backend names the kernel lane the workload's accumulators dispatched
	// to: "asm+avx2", "asm", "avx2", or "generic" (v3; empty when read
	// from older artifacts). The exact sums are backend-invariant — only
	// the timings depend on it — but a throughput number is not
	// reproducible without it.
	Backend string `json:"backend,omitempty"`
	// Checksum is the rounded float64 result of the workload's sum (the
	// last prefix for scans). All exact paths must agree bit-for-bit —
	// across workloads and across worker counts; it also keeps the
	// compiler from eliding the measured work.
	Checksum float64 `json:"checksum"`
}

// Report is the machine-readable summation benchmark artifact
// (BENCH_sum.json). It is self-describing enough for CI to validate and
// for later sessions to compare runs across commits.
type Report struct {
	Schema    string `json:"schema"`
	CreatedAt string `json:"created_at,omitempty"` // RFC 3339; informational
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is runtime.NumCPU() on the measuring machine; GOMAXPROCS is the
	// scheduler's effective parallelism (v2; 0 when read from a v1 file).
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// CPUFeatures is the comma-joined set of kernel-relevant CPU features
	// the probe detected on the measuring machine (e.g. "adx,avx2,bmi2"),
	// empty when none were detected or on pre-v3 artifacts. Machine
	// identity, not a gate: CompareReports ignores it.
	CPUFeatures string `json:"cpu_features,omitempty"`

	// HPLimbs/HPFrac are the HP format (paper N and k) every workload used.
	HPLimbs int `json:"hp_limbs"`
	HPFrac  int `json:"hp_frac_limbs"`
	// Count is the number of summands per trial; Trials the number of
	// timed repetitions (median reported).
	Count  int `json:"count"`
	Trials int `json:"trials"`
	// Baseline names the workload whose AddsPerSec defines Speedup == 1.
	Baseline  string     `json:"baseline"`
	Workloads []Workload `json:"workloads"`

	// MemBandwidthBytesPerSec is the measured streaming read bandwidth of
	// the benchmark machine over the workload buffer (best of the trials —
	// a ceiling, not a median), from a pure 64-bit load-and-xor pass with
	// no summation arithmetic. CeilingAddsPerSec is that bandwidth divided
	// by 8 bytes per float64: the adds/sec an ideal zero-arithmetic kernel
	// could reach on this machine, the roofline the serial workloads chase.
	// Optional (absent in older artifacts); machine-specific, so
	// CompareReports never gates on them.
	MemBandwidthBytesPerSec float64 `json:"mem_bandwidth_bytes_per_sec,omitempty"`
	CeilingAddsPerSec       float64 `json:"ceiling_adds_per_sec,omitempty"`
}

// Lookup returns the first workload with the given name (after WriteJSON's
// sort, the one with the lowest worker count), or nil.
func (r *Report) Lookup(name string) *Workload {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// LookupWorkers returns the workload entry for (name, workers), or nil.
func (r *Report) LookupWorkers(name string, workers int) *Workload {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name && r.Workloads[i].Workers == workers {
			return &r.Workloads[i]
		}
	}
	return nil
}

// Validate checks the report's structural invariants: the schema tag, the
// format and run parameters, per-workload sanity (positive throughput,
// workers >= 1, unique keys), and that the baseline workload exists with
// speedup 1 (within rounding). The current v3 schema and legacy v2/v1
// reports all validate; v1 additionally requires workload names to be
// unique on their own, and v3 requires every workload to name its kernel
// backend.
func (r *Report) Validate() error {
	switch r.Schema {
	case SumReportSchema, SumReportSchemaV2, SumReportSchemaV1:
	default:
		return fmt.Errorf("bench: schema %q, want %q (or legacy %q, %q)",
			r.Schema, SumReportSchema, SumReportSchemaV2, SumReportSchemaV1)
	}
	if r.Schema != SumReportSchemaV1 && r.GOMAXPROCS < 1 {
		return fmt.Errorf("bench: %s report without gomaxprocs", r.Schema)
	}
	if r.HPLimbs < 2 || r.HPFrac < 1 || r.HPFrac >= r.HPLimbs {
		return fmt.Errorf("bench: implausible HP format N=%d k=%d", r.HPLimbs, r.HPFrac)
	}
	if r.Count < 1 || r.Trials < 1 {
		return fmt.Errorf("bench: count=%d trials=%d", r.Count, r.Trials)
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("bench: no workloads")
	}
	type key struct {
		name    string
		workers int
	}
	seen := make(map[key]bool, len(r.Workloads))
	for _, w := range r.Workloads {
		if w.Name == "" {
			return fmt.Errorf("bench: unnamed workload")
		}
		k := key{w.Name, w.Workers}
		if r.Schema == SumReportSchemaV1 {
			k.workers = 0 // v1: names are globally unique
		}
		if seen[k] {
			return fmt.Errorf("bench: duplicate workload %q workers=%d", w.Name, w.Workers)
		}
		seen[k] = true
		if w.Workers < 1 {
			return fmt.Errorf("bench: workload %q: workers=%d", w.Name, w.Workers)
		}
		if !(w.SecondsPerTrial > 0) || !(w.AddsPerSec > 0) {
			return fmt.Errorf("bench: workload %q: non-positive timing", w.Name)
		}
		if !(w.Speedup > 0) {
			return fmt.Errorf("bench: workload %q: speedup %g", w.Name, w.Speedup)
		}
		if w.MallocsPerOp < 0 {
			return fmt.Errorf("bench: workload %q: mallocs_per_op %g", w.Name, w.MallocsPerOp)
		}
		switch w.Backend {
		case "asm+avx2", "asm", "avx2", "generic":
		case "":
			if r.Schema == SumReportSchema {
				return fmt.Errorf("bench: v3 workload %q without kernel backend", w.Name)
			}
		default:
			return fmt.Errorf("bench: workload %q: unknown backend %q", w.Name, w.Backend)
		}
	}
	base := r.Lookup(r.Baseline)
	if base == nil {
		return fmt.Errorf("bench: baseline workload %q missing", r.Baseline)
	}
	if base.Speedup < 0.999 || base.Speedup > 1.001 {
		return fmt.Errorf("bench: baseline speedup %g != 1", base.Speedup)
	}
	if r.MemBandwidthBytesPerSec < 0 || r.CeilingAddsPerSec < 0 {
		return fmt.Errorf("bench: negative bandwidth ceiling")
	}
	return nil
}

// FillSpeedups sets each workload's Speedup from the baseline's
// AddsPerSec. It must be called after all workloads are appended.
func (r *Report) FillSpeedups() error {
	base := r.Lookup(r.Baseline)
	if base == nil {
		return fmt.Errorf("bench: baseline workload %q missing", r.Baseline)
	}
	for i := range r.Workloads {
		r.Workloads[i].Speedup = r.Workloads[i].AddsPerSec / base.AddsPerSec
	}
	return nil
}

// WriteJSON validates the report and writes it as indented JSON, sorted by
// (workload name, workers) for diff-stable artifacts.
func (r *Report) WriteJSON(path string) error {
	sort.Slice(r.Workloads, func(i, j int) bool {
		if r.Workloads[i].Name != r.Workloads[j].Name {
			return r.Workloads[i].Name < r.Workloads[j].Name
		}
		return r.Workloads[i].Workers < r.Workloads[j].Workers
	})
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport parses and validates a BENCH_sum.json file (schema v3, or a
// legacy v2/v1 artifact).
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// RetiredWorkloads is the explicit allowlist of workload names that were
// deliberately removed from the runner after a committed artifact recorded
// them. A committed workload name absent from the current run fails
// CompareReports unless listed here: a silently vanished workload would
// otherwise pass the checksum phase of the gate without comparing anything
// (a rename or deletion looks exactly like a passing run). Retire a name by
// adding it here in the same change that removes the workload.
var RetiredWorkloads = []string{
	// The carry-save BatchAccumulator was deleted; SuperAccumulator does
	// every bulk fold (serial-super).
	"serial-batch",
}

// CompareReports is the regression gate between a freshly measured report
// and a committed reference. It fails if the runs are not comparable (the
// summand count or HP format differs — checksums would legitimately
// diverge), if any (name, workers) entry present in both reports disagrees
// on its checksum bit pattern — all drifts are collected and reported
// together, not just the first — or if the current speedup of any workload
// named in guard has dropped more than maxDrop (a fraction, e.g. 0.25)
// below the committed speedup. Speedups are relative to each report's own
// baseline, so a uniformly slower machine cancels out.
//
// Missing entries are asymmetric by design: a committed workload NAME with
// no entry at all in the current run is a hard error unless it appears in
// RetiredWorkloads — otherwise deleting or renaming an exact workload would
// silently skip its checksum comparison. A missing specific (name, workers)
// pair whose name is still present is NOT an error: the worker sweep
// includes NumCPU, so the exact worker counts legitimately vary across
// machines. Workloads only the current run has (newer than the artifact)
// are ignored.
func CompareReports(cur, committed *Report, guard []string, maxDrop float64) error {
	if cur.Count != committed.Count || cur.HPLimbs != committed.HPLimbs || cur.HPFrac != committed.HPFrac {
		return fmt.Errorf("bench: runs not comparable: count %d vs %d, format N=%d k=%d vs N=%d k=%d",
			cur.Count, committed.Count, cur.HPLimbs, cur.HPFrac, committed.HPLimbs, committed.HPFrac)
	}
	retired := make(map[string]bool, len(RetiredWorkloads))
	for _, name := range RetiredWorkloads {
		retired[name] = true
	}
	var errs []error
	missing := make(map[string]bool)
	for _, ref := range committed.Workloads {
		w := cur.LookupWorkers(ref.Name, ref.Workers)
		if w == nil {
			if cur.Lookup(ref.Name) == nil && !retired[ref.Name] && !missing[ref.Name] {
				missing[ref.Name] = true
				errs = append(errs, fmt.Errorf(
					"bench: committed workload %q missing from current run (add it to RetiredWorkloads if intentionally removed)",
					ref.Name))
			}
			continue // worker-count sweep differences are machine-dependent
		}
		if math.Float64bits(w.Checksum) != math.Float64bits(ref.Checksum) {
			errs = append(errs, fmt.Errorf(
				"bench: %s workers=%d: checksum %x, committed %x (exact sums diverged)",
				ref.Name, ref.Workers, math.Float64bits(w.Checksum), math.Float64bits(ref.Checksum)))
		}
	}
	for _, name := range guard {
		ref := committed.Lookup(name)
		if ref == nil {
			continue // workload newer than the committed artifact
		}
		w := cur.LookupWorkers(name, ref.Workers)
		if w == nil {
			errs = append(errs, fmt.Errorf(
				"bench: guarded workload %q workers=%d missing from current run",
				name, ref.Workers))
			continue
		}
		if w.Speedup < ref.Speedup*(1-maxDrop) {
			errs = append(errs, fmt.Errorf(
				"bench: %s speedup %.3f dropped >%.0f%% below committed %.3f",
				name, w.Speedup, maxDrop*100, ref.Speedup))
		}
	}
	return errors.Join(errs...)
}
