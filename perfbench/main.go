// Command perfbench is the repository's end-to-end benchmark. It drives one
// workload through the system's public entry points for a fixed time,
// checks every output bit for bit against an exact reference, and prints
// one JSON result as its last line. See README.md for the workloads, the
// metrics and how they relate.
//
//	bash perfbench/run.sh --workload ingest-bulk --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// opts is one run's settings.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch files (audit journals) go under here
	procs   int    // load goroutines and worker count: the machine's CPUs
}

// report is what a workload hands back to main.
type report struct {
	setups []time.Duration
	// e2e holds the untraced phase's end-to-end slots (slotWork, slotOp).
	e2e    map[string]float64
	rssMiB float64 // median resident memory while the untraced phase ran
	// named are the workload's end-to-end metrics under their own names,
	// printed as report lines ahead of the JSON result.
	named []namedValue
	// layers holds the traced phase's per-layer metrics.
	layers    map[string]float64
	attempted int
	failed    int // failed, refused or output-check-failed operations
	badChecks int // output checks that failed
	mu        sync.Mutex
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func (r *report) name(name string, value float64, unit string) {
	r.named = append(r.named, namedValue{name, value, unit})
}

// checkFailed counts a failed output check; load goroutines may call it
// concurrently.
func (r *report) checkFailed(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.badChecks++
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: output check failed: "+format+"\n", args...)
}

// End-to-end slots. Every workload fills every slot; README.md maps each
// slot to the workload's own metric.
const (
	slotWork = "work_per_s"
	slotOp   = "op_ms"
)

// metricDef is one metric of BENCHMARK.json: name, unit and which
// direction is better.
type metricDef struct{ name, unit, better string }

// endToEnd lists the end-to-end metrics of the untraced run, in
// BENCHMARK.json's order.
var endToEnd = []metricDef{
	{slotWork, "1/s", "higher"},
	{slotOp, "ms", "lower"},
	{"rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists every per-layer metric of the traced run, in
// BENCHMARK.json's order. A workload reports 0 for a layer it does not
// exercise.
var perLayer = []metricDef{
	{"core.fold_ns_per_value", "ns", "lower"},
	{"core.combine_us", "us", "lower"},
	{"core.read_bytes_per_s", "B/s", "higher"},
	{"core.stream_read_bytes_per_s", "B/s", "higher"},
	{"core.ceiling_fraction", "ratio", "higher"},
	{"omp.busy_imbalance", "ratio", "lower"},
	{"omp.fork_join_us", "us", "lower"},
	{"scan.ns_per_value", "ns", "lower"},
	{"scan.alloc_mib", "MiB", "lower"},
	{"client.encode_ns_per_value", "ns", "lower"},
	{"client.roundtrip_ms", "ms", "lower"},
	{"server.body_wait_ns_per_value", "ns", "lower"},
	{"server.handler_self_ns_per_value", "ns", "lower"},
	{"server.allocs_per_value", "count", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.busy_ratio", "ratio", "lower"},
	{"server.write_handler_ms", "ms", "lower"},
	{"server.read_handler_ms", "ms", "lower"},
	{"server.replica_divergence", "count", "lower"},
	{"audit.record_ms", "ms", "lower"},
	{"audit.journal_bytes_per_value", "B", "lower"},
	{"gossip.round_ms", "ms", "lower"},
	{"gossip.refresh_ms", "ms", "lower"},
	{"gossip.frames_per_round", "count", "lower"},
	{"gossip.bytes_per_round", "B", "lower"},
	{"gossip.send_ms", "ms", "lower"},
	{"gossip.handle_ms", "ms", "lower"},
	{"gossip.cluster_read_ms", "ms", "lower"},
	{"gossip.applied_ratio", "ratio", "higher"},
	{"gossip.rounds_to_converge", "count", "lower"},
	{"gossip.digest_mismatches", "count", "lower"},
	{"gossip.outbound_dropped", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"error_ratio", "ratio", "lower"},
	{"trace.unaccounted_share", "ratio", "lower"},
	{"trace.overhead.work_per_s", "ratio", "lower"},
	{"trace.overhead.op_ms", "ratio", "lower"},
}

var workloads = map[string]func(opts) (*report, error){
	"reduce-wide":   runReduce,
	"ingest-bulk":   runIngest,
	"mix-audited":   runMix,
	"cluster-burst": runCluster,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: reduce-wide, ingest-bulk, mix-audited, cluster-burst")
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured time per run")
		traceOn  = flag.Int("trace", 0, "1: add a traced phase and report per-layer metrics instead of end-to-end ones")
		workdir  = flag.String("workdir", ".bench_build", "directory for scratch files")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *traceOn)
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traceOn == 1, workdir: *workdir, procs: runtime.NumCPU()}
	rep, err := wl(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	printReport(*workload, o, rep)
	return 0
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printReport(workload string, o opts, rep *report) {
	setup := make([]float64, len(rep.setups))
	for i, d := range rep.setups {
		setup[i] = d.Seconds()
	}
	e2e := map[string]float64{
		slotWork:  rep.e2e[slotWork],
		slotOp:    rep.e2e[slotOp],
		"rss_mib": rep.rssMiB,
		"setup_s": median(setup),
	}
	errRatio := ratio(float64(rep.failed), float64(rep.attempted))
	for _, n := range rep.named {
		fmt.Printf("%s %-24s %14.6g %s\n", workload, n.name, n.value, n.unit)
	}
	fmt.Printf("%s %-24s %14.6g %s\n", workload, "setup_s", e2e["setup_s"], "s")
	fmt.Printf("%s %-24s %14.6g %s\n", workload, "error_ratio", errRatio, "ratio")
	fmt.Printf("%s %-24s %14.6g %s\n", workload, "rss_mib", e2e["rss_mib"], "MiB")
	fmt.Printf("%s %-24s %14.6g %s\n", workload, "peak_rss_mib", peakRSSMiB(), "MiB")

	metrics := map[string]map[string]any{}
	if o.trace {
		rep.layers["error_ratio"] = errRatio
		for _, l := range perLayer {
			v := rep.layers[l.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			metrics[l.name] = map[string]any{"value": v, "unit": l.unit}
			fmt.Printf("%s layer %-34s %14.6g %s\n", workload, l.name, v, l.unit)
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": e2e[m.name], "unit": m.unit}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.badChecks == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setupN is how many times each run sets its workload up; setup_s is the
// median.
const setupN = 5

// repeatSetup runs setup setupN times, timing each, and keeps the last
// environment; teardown releases the others before the next one is built.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, []time.Duration, error) {
	var env T
	var times []time.Duration
	for i := 0; i < setupN; i++ {
		if i > 0 {
			// Hand the torn-down environment's memory back before the
			// next one, so peak RSS reflects one environment.
			teardown(env)
			debug.FreeOSMemory()
		}
		t := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t))
		env = e
	}
	return env, times, nil
}

// phases runs the measurement. Untraced runs measure once for the whole
// time. Traced runs measure an untraced half and then a traced half on the
// same environment, so trace.overhead.<slot> is how much worse the traced
// half read than the untraced half, as a share of the untraced half.
func phases(o opts, rep *report, measure func(rec *recorder, secs float64) (map[string]float64, error)) error {
	if !o.trace {
		mem := startMemSampler()
		m, err := measure(nil, o.seconds)
		rep.rssMiB = mem.finish()
		rep.e2e = m
		return err
	}
	rep.layers = map[string]float64{}
	m, err := measure(nil, o.seconds/2)
	if err != nil {
		return err
	}
	rep.e2e = m
	mt, err := measure(newRecorder(), o.seconds/2)
	if err != nil {
		return err
	}
	rep.layers["trace.overhead."+slotWork] = ratio(m[slotWork]-mt[slotWork], m[slotWork])
	rep.layers["trace.overhead."+slotOp] = ratio(mt[slotOp]-m[slotOp], m[slotOp])
	return nil
}
