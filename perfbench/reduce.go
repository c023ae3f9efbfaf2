package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"repro"
	"repro/internal/core"
	"repro/internal/omp"
	"repro/internal/rng"
)

// reduce-wide: the library path. repro.ParallelSum and repro.PrefixSum at
// procs workers over 64 Mi float64 (512 MiB, several times any L3 this
// runs on) of §IV.A wide-dynamic-range magnitudes with random signs.
const (
	reduceN     = 64 << 20
	reduceBlock = 64 << 10 // ± pairs are shuffled within blocks of this many values
	reduceTail  = 64       // the known remainder after the pairs
	// Exponent range of the magnitudes. Every value's lowest set bit,
	// 2^(e-52), stays inside HP(6,3)'s 2^-192 resolution; 2^-150 values
	// set the sticky underflow error.
	reduceMinExp = -130
	reduceMaxExp = 60
)

var reduceParams = repro.Params384

// reduceInput is the generated buffer and its exact total, known by
// construction: shuffled ± pairs cancel exactly, so the total is the
// correctly rounded sum of the short remainder.
type reduceInput struct {
	xs    []float64
	total float64
}

// blockSeed derives an independent stream per block, so the buffer is the
// same for every generating goroutine count.
func blockSeed(seed uint64, b int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(b)*0xBF58476D1CE4E5B9 + 1
}

func genReduce(seed uint64, procs int) (reduceInput, error) {
	xs := make([]float64, reduceN)
	pairs := reduceN - reduceTail
	nblocks := (pairs + reduceBlock - 1) / reduceBlock
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < nblocks; b += procs {
				lo, hi := b*reduceBlock, min((b+1)*reduceBlock, pairs)
				r := rng.New(blockSeed(seed, b))
				blk := xs[lo:hi]
				half := len(blk) / 2
				for i := 0; i < half; i++ {
					v := r.Exp2Uniform(reduceMinExp, reduceMaxExp)
					blk[i], blk[half+i] = v, -v
				}
				r.Shuffle(blk)
			}
		}(w)
	}
	wg.Wait()
	r := rng.New(blockSeed(seed, -1))
	for i := pairs; i < reduceN; i++ {
		xs[i] = r.Exp2Uniform(reduceMinExp, reduceMaxExp)
	}
	total, err := core.SumHP(reduceParams, xs[pairs:])
	if err != nil {
		return reduceInput{}, fmt.Errorf("remainder: %w", err)
	}
	return reduceInput{xs: xs, total: total.Float64()}, nil
}

// prefixRef is the serial reference for PrefixSum: the SHA-256 of each
// worker segment's prefixes, computed once, outside the timed region, by
// one sequential add-then-round pass from zero.
type prefixRef struct {
	segs [][sha256.Size]byte
	last float64
}

func referencePrefix(xs []float64, procs int) prefixRef {
	ref := prefixRef{segs: make([][sha256.Size]byte, procs)}
	b := core.NewBatch(reduceParams)
	chunk := make([]float64, 1<<16)
	for t := 0; t < procs; t++ {
		lo, hi := omp.StaticBlock(len(xs), procs, t)
		h := sha256.New()
		for i := lo; i < hi; i += len(chunk) {
			c := chunk[:min(len(chunk), hi-i)]
			for j := range c {
				c[j], _ = b.AddRound(xs[i+j])
			}
			h.Write(floatBytes(c))
			ref.last = c[len(c)-1]
		}
		copy(ref.segs[t][:], h.Sum(nil))
	}
	return ref
}

func floatBytes(xs []float64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 8*len(xs))
}

// checkPrefix hashes out's segments in parallel and reports the first
// segment that differs from the reference (-1: all equal).
func checkPrefix(out []float64, ref prefixRef) int {
	procs := len(ref.segs)
	bad := make([]bool, procs)
	var wg sync.WaitGroup
	for t := 0; t < procs; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			lo, hi := omp.StaticBlock(len(out), procs, t)
			bad[t] = sha256.Sum256(floatBytes(out[lo:hi])) != ref.segs[t]
		}(t)
	}
	wg.Wait()
	for t, b := range bad {
		if b {
			return t
		}
	}
	return -1
}

// streamRead is the roofline's memory ceiling: procs goroutines xor-fold
// their blocks of the same buffer as 64-bit words. It returns bytes/s.
func streamRead(xs []float64, procs int) float64 {
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&xs[0])), len(xs))
	sinks := make([]uint64, procs)
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < procs; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			lo, hi := omp.StaticBlock(len(words), procs, t)
			var a0, a1, a2, a3 uint64
			w := words[lo:hi]
			for ; len(w) >= 4; w = w[4:] {
				a0 ^= w[0]
				a1 ^= w[1]
				a2 ^= w[2]
				a3 ^= w[3]
			}
			for _, x := range w {
				a0 ^= x
			}
			sinks[t] = a0 ^ a1 ^ a2 ^ a3
		}(t)
	}
	wg.Wait()
	d := time.Since(start)
	streamSink = sinks[0]
	return float64(8*len(words)) / d.Seconds()
}

var streamSink uint64

// tracedReduce is repro.ParallelSum's reduction spelled out through
// omp.Reduce with the same local, body and combine, so the benchmark can
// time each core call from outside: one core.fold span per worker and one
// core.combine span per merge under an omp.reduce root.
func tracedReduce(rec *recorder, xs []float64, procs int) (float64, error) {
	root := rec.start(spanCtx{}, "omp.reduce")
	total := omp.Reduce(omp.NewTeam(procs), len(xs),
		func(int) *core.SuperAccumulator { return core.NewSuper(reduceParams) },
		func(local *core.SuperAccumulator, _, lo, hi int) {
			sp := rec.start(root.ctx(), "core.fold")
			local.AddSlice(xs[lo:hi])
			sp.end()
		},
		func(into, from *core.SuperAccumulator) {
			sp := rec.start(root.ctx(), "core.combine")
			into.MergeChecked(from)
			sp.end()
		})
	root.end()
	if err := total.Err(); err != nil {
		return 0, err
	}
	return total.Sum().Float64(), nil
}

func runReduce(o opts) (*report, error) {
	rep := &report{}
	in, setups, err := repeatSetup(func() (reduceInput, error) { return genReduce(o.seed, o.procs) },
		func(reduceInput) {})
	if err != nil {
		return nil, err
	}
	rep.setups = setups
	ref := referencePrefix(in.xs, o.procs)
	if math.Float64bits(ref.last) != math.Float64bits(in.total) {
		return nil, fmt.Errorf("serial reference final prefix %v != constructed total %v", ref.last, in.total)
	}
	xs := in.xs
	var untracedReduce float64 // mean ParallelSum wall of the untraced phase, ns

	measure := func(rec *recorder, secs float64) (map[string]float64, error) {
		// Reduce calls take a few tens of milliseconds and scan calls a
		// few seconds, so the reduce loop gets a fixed share of the time.
		var reduceWalls, scanWalls []float64
		var scanAlloc []float64
		deadline := time.Now().Add(time.Duration(0.25 * secs * float64(time.Second)))
		for len(reduceWalls) < 5 || time.Now().Before(deadline) {
			t := time.Now()
			var got float64
			var err error
			if rec == nil {
				got, err = repro.ParallelSum(reduceParams, xs, o.procs)
			} else {
				got, err = tracedReduce(rec, xs, o.procs)
			}
			reduceWalls = append(reduceWalls, float64(time.Since(t)))
			rep.attempted++
			switch {
			case err != nil:
				rep.checkFailed("ParallelSum: %v", err)
			case math.Float64bits(got) != math.Float64bits(in.total):
				rep.checkFailed("ParallelSum = %v, want %v", got, in.total)
			}
		}
		deadline = time.Now().Add(time.Duration(0.75 * secs * float64(time.Second)))
		for len(scanWalls) == 0 || time.Now().Before(deadline) {
			var ms0, ms1 runtime.MemStats
			if rec != nil {
				runtime.ReadMemStats(&ms0)
			}
			sp := rec.start(spanCtx{}, "scan.inclusive")
			t := time.Now()
			out, err := repro.PrefixSum(reduceParams, xs, o.procs)
			scanWalls = append(scanWalls, float64(time.Since(t)))
			sp.end()
			if rec != nil {
				runtime.ReadMemStats(&ms1)
				scanAlloc = append(scanAlloc, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			}
			rep.attempted++
			switch {
			case err != nil:
				rep.checkFailed("PrefixSum: %v", err)
			case math.Float64bits(out[len(out)-1]) != math.Float64bits(in.total):
				rep.checkFailed("PrefixSum final prefix %v, want the reduce total %v", out[len(out)-1], in.total)
			default:
				if seg := checkPrefix(out, ref); seg >= 0 {
					rep.checkFailed("PrefixSum segment %d differs from the serial reference", seg)
				}
			}
			// Each call returns a fresh 512 MiB slice; collecting it here,
			// outside the timed call, keeps the process at one live output.
			out = nil
			runtime.GC()
		}
		reduceRate := reduceN / (median(reduceWalls) / 1e9)
		scanMs := median(scanWalls) / 1e6
		m := map[string]float64{slotWork: reduceRate, slotOp: scanMs}
		if rec == nil {
			untracedReduce = mean(reduceWalls)
			rep.name("reduce_values_per_s", reduceRate, "1/s")
			rep.name("scan_values_per_s", reduceN/(scanMs/1e3), "1/s")
			return m, nil
		}
		reduceLayers(rep, rec, xs, o.procs, reduceWalls, scanWalls, scanAlloc, untracedReduce)
		return m, nil
	}
	if err := phases(o, rep, measure); err != nil {
		return nil, err
	}
	return rep, nil
}

func reduceLayers(rep *report, rec *recorder, xs []float64, procs int,
	reduceWalls, scanWalls, scanAlloc []float64, untracedReduce float64) {
	a := rec.analyze()
	L := rep.layers
	n := float64(len(xs))
	fold := a.layer("core.fold")
	L["core.fold_ns_per_value"] = ratio(float64(fold.total), n*float64(len(reduceWalls)))
	L["core.combine_us"] = a.layer("core.combine").meanMs() * 1e3

	// Per call: busy imbalance over the workers' folds, and the fork-join
	// cost left when the slowest fold and the combines are taken out.
	var imbalance, forkJoin []float64
	for _, s := range a.spans {
		if s.name != "omp.reduce" {
			continue
		}
		var busy []float64
		var slowest, combine int64
		for _, k := range a.children[s.id] {
			d := k.end - k.start
			if k.name == "core.fold" {
				busy = append(busy, float64(d))
				slowest = max(slowest, d)
			} else {
				combine += d
			}
		}
		imbalance = append(imbalance, maxMinOverMean(busy))
		forkJoin = append(forkJoin, float64(s.end-s.start-slowest-combine)/1e3)
	}
	L["omp.busy_imbalance"] = median(imbalance)
	L["omp.fork_join_us"] = median(forkJoin)

	readRate := 8 * n / (median(reduceWalls) / 1e9)
	var ceilings []float64
	for i := 0; i < 3; i++ {
		ceilings = append(ceilings, streamRead(xs, procs))
	}
	ceiling := median(ceilings)
	L["core.read_bytes_per_s"] = readRate
	L["core.stream_read_bytes_per_s"] = ceiling
	L["core.ceiling_fraction"] = ratio(readRate, ceiling)
	rep.name("core_buffer_mib", 8*n/(1<<20), "MiB")
	rep.name("core_l3_mib", float64(l3Bytes())/(1<<20), "MiB")

	L["scan.ns_per_value"] = median(scanWalls) / n
	L["scan.alloc_mib"] = median(scanAlloc)

	L["trace.unaccounted_share"] = unaccounted(a, "omp.reduce", untracedReduce)
}
