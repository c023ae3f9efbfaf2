// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, plus the ablations called out in DESIGN.md §5. Each BenchmarkFigN
// / BenchmarkTableN exercises the measured computation of the corresponding
// table or figure at a benchmark-friendly size; the full-scale sweeps
// (exact published sizes and thread counts) live in cmd/experiments.
//
//	go test -bench=. -benchmem
package repro

import (
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/binned"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/exact"
	"repro/internal/floatsum"
	"repro/internal/hallberg"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/phi"
	"repro/internal/rblas"
	"repro/internal/rng"
	"repro/internal/scan"
	"repro/internal/stats"
)

// ---- Figure 1 / Figure 2: accuracy workload (zero-sum random orders) ----

func zeroSumSet(n int) []float64 {
	return rng.ZeroSum(rng.New(1), n, 0.001)
}

// BenchmarkFig1_Double measures the plain float64 pass over one Figure 1
// trial (n = 1024).
func BenchmarkFig1_Double(b *testing.B) {
	xs := zeroSumSet(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = floatsum.Naive(xs)
	}
}

// BenchmarkFig1_HP192 measures the HP(N=3,k=2) pass over one Figure 1
// trial, the configuration that achieves exact zero in the paper.
func BenchmarkFig1_HP192(b *testing.B) {
	xs := zeroSumSet(1024)
	acc := core.NewAccumulator(core.Params192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		acc.AddAll(xs)
	}
	if acc.Err() != nil {
		b.Fatal(acc.Err())
	}
}

// BenchmarkFig2_HistogramTrial measures one Figure 2 trial: shuffle, sum,
// and bin the residual.
func BenchmarkFig2_HistogramTrial(b *testing.B) {
	set := zeroSumSet(1024)
	r := rng.New(2)
	h := stats.NewHistogram(-1e-16, 1e-16, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		xs := rng.Reorder(r, set)
		h.Add(floatsum.Naive(xs))
	}
}

// ---- Table 1 / Table 2: parameter computation ----

func BenchmarkTable1_Params(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, p := range []core.Params{core.Params128, core.Params192,
			core.Params384, core.Params512} {
			sink += p.MaxRange() + p.Smallest()
		}
	}
	_ = sink
}

func BenchmarkTable2_ParamsFor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, budget := range []int64{2048, 1 << 20, 64 << 20} {
			if _, err := hallberg.ParamsFor(512, budget); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Figure 4: HP(8,4) vs Hallberg on wide-range values ----

func wideRangeSet(n int) []float64 {
	return rng.WideRangeQuantized(rng.New(3), n, -223, 191, -256)
}

// BenchmarkFig4_HP512 measures HP(N=8,k=4) accumulation per value.
func BenchmarkFig4_HP512(b *testing.B) {
	xs := wideRangeSet(1 << 16)
	acc := core.NewAccumulator(core.Params512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		acc.AddAll(xs)
	}
	if acc.Err() != nil {
		b.Fatal(acc.Err())
	}
}

// BenchmarkFig4_Hallberg measures the Hallberg method at each Table 2
// parameterization over the same values.
func BenchmarkFig4_Hallberg(b *testing.B) {
	xs := wideRangeSet(1 << 16)
	for _, p := range []hallberg.Params{
		hallberg.New(10, 52), hallberg.New(12, 43), hallberg.New(14, 37),
	} {
		b.Run(p.String(), func(b *testing.B) {
			acc := hallberg.NewAccumulator(p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.Reset()
				acc.AddAll(xs)
			}
			if acc.Err() != nil && acc.Err() != hallberg.ErrTooManySummands {
				b.Fatal(acc.Err())
			}
		})
	}
}

// ---- Figure 5: OpenMP-substrate strong scaling ----

func uniformSet(n int) []float64 {
	return rng.UniformSet(rng.New(4), n, -0.5, 0.5)
}

func BenchmarkFig5_OMP(b *testing.B) {
	xs := uniformSet(1 << 18)
	for _, threads := range []int{1, 2, 4, 8} {
		team := omp.NewTeam(threads)
		b.Run(bname("double", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = *omp.Reduce(team, len(xs),
					func(int) *float64 { v := 0.0; return &v },
					func(local *float64, _, lo, hi int) {
						s := 0.0
						for _, x := range xs[lo:hi] {
							s += x
						}
						*local += s
					},
					func(into, from *float64) { *into += *from })
			}
		})
		b.Run(bname("hp384", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := omp.Reduce(team, len(xs),
					func(int) *core.Accumulator { return core.NewAccumulator(core.Params384) },
					func(local *core.Accumulator, _, lo, hi int) { local.AddAll(xs[lo:hi]) },
					func(into, from *core.Accumulator) { into.Merge(from) })
				if total.Err() != nil {
					b.Fatal(total.Err())
				}
			}
		})
		b.Run(bname("hallberg", threads), func(b *testing.B) {
			p := hallberg.New(10, 38)
			for i := 0; i < b.N; i++ {
				total := omp.Reduce(team, len(xs),
					func(int) *hallberg.Accumulator { return hallberg.NewAccumulator(p) },
					func(local *hallberg.Accumulator, _, lo, hi int) { local.AddAll(xs[lo:hi]) },
					func(into, from *hallberg.Accumulator) { into.AddNum(from.Sum(), from.Count()) })
				if total.Err() != nil {
					b.Fatal(total.Err())
				}
			}
		})
	}
}

// ---- Figure 6: MPI-substrate reduction ----

func BenchmarkFig6_MPIReduceHP(b *testing.B) {
	xs := uniformSet(1 << 16)
	p := core.Params384
	for _, size := range []int{1, 4, 16} {
		op := mpi.OpSumHP(p)
		b.Run(bname("ranks", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(size, func(c *mpi.Comm) error {
					lo := c.Rank() * len(xs) / size
					hi := (c.Rank() + 1) * len(xs) / size
					acc := core.NewAccumulator(p)
					acc.AddAll(xs[lo:hi])
					if acc.Err() != nil {
						return acc.Err()
					}
					_, err := c.Reduce(0, mpi.EncodeHP(acc.Sum()), op)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 7: CUDA-substrate atomic accumulation ----

func BenchmarkFig7_CUDAAtomics(b *testing.B) {
	xs := uniformSet(1 << 16)
	device := cuda.TeslaK20m()
	cfg := cuda.Config{Blocks: 4, ThreadsPerBlock: 256}
	const partials = 256
	b.Run("double_cas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ps := make([]cuda.AtomicFloat64, partials)
			err := device.Launch(cfg, func(tc cuda.ThreadCtx) {
				total := tc.Cfg.Threads()
				dst := &ps[tc.Global%partials]
				for j := tc.Global; j < len(xs); j += total {
					dst.Add(xs[j])
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hp384_cas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ps := make([]*core.Atomic, partials)
			for j := range ps {
				ps[j] = core.NewAtomic(core.Params384)
			}
			err := device.Launch(cfg, func(tc cuda.ThreadCtx) {
				scratch := core.New(core.Params384)
				total := tc.Cfg.Threads()
				dst := ps[tc.Global%partials]
				for j := tc.Global; j < len(xs); j += total {
					if err := scratch.SetFloat64(xs[j]); err != nil {
						panic(err)
					}
					dst.AddHPCAS(scratch)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hallberg_cas", func(b *testing.B) {
		p := hallberg.New(10, 38)
		for i := 0; i < b.N; i++ {
			ps := make([]*hallberg.Atomic, partials)
			for j := range ps {
				ps[j] = hallberg.NewAtomic(p)
			}
			err := device.Launch(cfg, func(tc cuda.ThreadCtx) {
				scratch := hallberg.NewNum(p)
				total := tc.Cfg.Threads()
				dst := ps[tc.Global%partials]
				for j := tc.Global; j < len(xs); j += total {
					if err := scratch.SetFloat64(xs[j]); err != nil {
						panic(err)
					}
					dst.AddNumCAS(scratch)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Figure 8: Xeon Phi offload ----

func BenchmarkFig8_PhiOffloadHP(b *testing.B) {
	xs := uniformSet(1 << 16)
	device := &phi.Device{Name: "bench", MaxThreads: 240} // no modeled wire time in benches
	for _, threads := range []int{1, 8, 64, 240} {
		b.Run(bname("threads", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf := device.OffloadIn(xs)
				partials := make([]*core.Accumulator, threads)
				used, err := device.Run(threads, buf.Len(), func(tid, lo, hi int) {
					acc := core.NewAccumulator(core.Params384)
					acc.AddAll(buf.Data()[lo:hi])
					partials[tid] = acc
				})
				if err != nil {
					b.Fatal(err)
				}
				final := core.NewAccumulator(core.Params384)
				for _, p := range partials[:used] {
					final.Merge(p)
				}
				if final.Err() != nil {
					b.Fatal(final.Err())
				}
			}
		})
	}
}

// ---- Analytic model (eqs. 3-6) ----

func BenchmarkModel_SpeedupBounds(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += hallberg.PredictedSpeedup(1, 511, 43) +
			hallberg.SpeedupBoundEq5(1, 511, 43) +
			hallberg.SpeedupLowerBound(1, 43)
	}
	_ = sink
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationConvert compares the exact bit-decomposition conversion
// against the paper's Listing 1 float loop.
func BenchmarkAblationConvert(b *testing.B) {
	xs := wideRangeSet(4096)
	z := core.New(core.Params512)
	b.Run("bit_decompose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				if err := z.SetFloat64(x); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("listing1_float_loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				if err := z.SetFloat64Listing1(x); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationAdd compares the math/bits.Add64 carry chain against the
// paper's Listing 2 comparison-based carries.
func BenchmarkAblationAdd(b *testing.B) {
	xs := wideRangeSet(4096)
	vals := make([]*core.HP, len(xs))
	for i, x := range xs {
		v, err := core.FromFloat64(core.Params512, x)
		if err != nil {
			b.Fatal(err)
		}
		vals[i] = v
	}
	acc := core.New(core.Params512)
	b.Run("bits_add64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				acc.Add(v)
			}
		}
	})
	b.Run("listing2_compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				acc.AddListing2(v)
			}
		}
	})
}

// BenchmarkAblationAtomic compares the fetch-add atomic adder against the
// paper's CAS-loop construction under contention.
func BenchmarkAblationAtomic(b *testing.B) {
	xs := uniformSet(1 << 12)
	team := omp.NewTeam(8)
	for _, flavor := range []struct {
		name string
		add  func(a *core.Atomic, x *core.HP)
	}{
		{"fetch_add", func(a *core.Atomic, x *core.HP) { a.AddHP(x) }},
		{"cas_loop", func(a *core.Atomic, x *core.HP) { a.AddHPCAS(x) }},
	} {
		b.Run(flavor.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc := core.NewAtomic(core.Params384)
				team.Run(func(tid int) {
					scratch := core.New(core.Params384)
					lo, hi := omp.StaticBlock(len(xs), team.Threads(), tid)
					for _, x := range xs[lo:hi] {
						if err := scratch.SetFloat64(x); err != nil {
							panic(err)
						}
						flavor.add(acc, scratch)
					}
				})
			}
		})
	}
}

// BenchmarkAblationToFloat compares the correctly rounded HP-to-double
// conversion against the paper's multiply-accumulate inverse of Listing 1.
func BenchmarkAblationToFloat(b *testing.B) {
	xs := wideRangeSet(512)
	vals := make([]*core.HP, len(xs))
	for i, x := range xs {
		v, err := core.FromFloat64(core.Params512, x)
		if err != nil {
			b.Fatal(err)
		}
		vals[i] = v
	}
	var sink float64
	b.Run("correctly_rounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				sink += v.Float64()
			}
		}
	})
	b.Run("listing1_inverse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				sink += v.Float64Listing1Inverse()
			}
		}
	})
	_ = sink
}

// BenchmarkAblationOracle prices the exact big.Int oracle against HP,
// quantifying what the fixed-size limb representation buys.
func BenchmarkAblationOracle(b *testing.B) {
	xs := uniformSet(1 << 12)
	b.Run("hp384", func(b *testing.B) {
		acc := core.NewAccumulator(core.Params384)
		for i := 0; i < b.N; i++ {
			acc.Reset()
			acc.AddAll(xs)
		}
	})
	b.Run("bigint_oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := exact.New()
			a.AddAll(xs)
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := core.NewAdaptive(core.Params384)
			if err := a.AddAll(xs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKernelShape compares the paper's Figure 7 kernel
// (per-element atomics into 256 shared partials) against the classic
// shared-memory block-tree reduction with one atomic per block.
func BenchmarkAblationKernelShape(b *testing.B) {
	xs := uniformSet(1 << 16)
	device := cuda.TeslaK20m()
	cfg := cuda.Config{Blocks: 8, ThreadsPerBlock: 64}
	p := core.Params384
	b.Run("global_atomics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partials := make([]*core.Atomic, 256)
			for j := range partials {
				partials[j] = core.NewAtomic(p)
			}
			err := device.Launch(cfg, func(tc cuda.ThreadCtx) {
				scratch := core.New(p)
				total := tc.Cfg.Threads()
				dst := partials[tc.Global%256]
				for j := tc.Global; j < len(xs); j += total {
					if err := scratch.SetFloat64(xs[j]); err != nil {
						panic(err)
					}
					dst.AddHPCAS(scratch)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("block_tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			global := core.NewAtomic(p)
			shared := make([][]*core.Accumulator, cfg.Blocks)
			for blk := range shared {
				shared[blk] = make([]*core.Accumulator, cfg.ThreadsPerBlock)
				for t := range shared[blk] {
					shared[blk][t] = core.NewAccumulator(p)
				}
			}
			err := device.LaunchSync(cfg, func(tc cuda.ThreadCtx, sync func()) {
				mine := shared[tc.Block][tc.Thread]
				total := tc.Cfg.Threads()
				for j := tc.Global; j < len(xs); j += total {
					mine.Add(xs[j])
				}
				sync()
				for stride := tc.Cfg.ThreadsPerBlock / 2; stride > 0; stride /= 2 {
					if tc.Thread < stride {
						shared[tc.Block][tc.Thread].Merge(shared[tc.Block][tc.Thread+stride])
					}
					sync()
				}
				if tc.Thread == 0 {
					global.AddHP(shared[tc.Block][0].Sum())
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFamilies compares the per-add cost of the three
// order-invariant summation families at ~comparable guarantees.
func BenchmarkAblationFamilies(b *testing.B) {
	xs := uniformSet(1 << 14)
	b.Run("hp384", func(b *testing.B) {
		acc := core.NewAccumulator(core.Params384)
		for i := 0; i < b.N; i++ {
			acc.Reset()
			acc.AddAll(xs)
		}
	})
	b.Run("hallberg_10_38", func(b *testing.B) {
		acc := hallberg.NewAccumulator(hallberg.New(10, 38))
		for i := 0; i < b.N; i++ {
			acc.Reset()
			acc.AddAll(xs)
		}
	})
	b.Run("binned_w36", func(b *testing.B) {
		acc := binned.New(36)
		for i := 0; i < b.N; i++ {
			acc.Reset()
			acc.AddAll(xs)
		}
	})
}

// BenchmarkAblationPadding compares the cache-line padded AtomicArray bank
// against tightly packed per-limb atomics under cross-slot contention
// (false sharing). On a multi-core host the padded layout wins; on one
// core the difference collapses, which is itself informative.
func BenchmarkAblationPadding(b *testing.B) {
	p := core.Params384
	const slots = 4
	const workers = 8
	xs := uniformSet(1 << 12)
	team := omp.NewTeam(workers)
	b.Run("padded_bank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bank := core.NewAtomicArray(p, slots)
			team.Run(func(tid int) {
				scratch := core.New(p)
				lo, hi := omp.StaticBlock(len(xs), workers, tid)
				for j := lo; j < hi; j++ {
					if err := scratch.SetFloat64(xs[j]); err != nil {
						panic(err)
					}
					bank.AddHP(tid%slots, scratch)
				}
			})
		}
	})
	b.Run("tight_slots", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Unpadded: slot limbs packed back to back in one array.
			tight := make([]atomic.Uint64, slots*p.N)
			team.Run(func(tid int) {
				scratch := core.New(p)
				slot := tight[(tid%slots)*p.N : (tid%slots)*p.N+p.N]
				lo, hi := omp.StaticBlock(len(xs), workers, tid)
				for j := lo; j < hi; j++ {
					if err := scratch.SetFloat64(xs[j]); err != nil {
						panic(err)
					}
					limbs := scratch.Limbs()
					var carry uint64
					for k := p.N - 1; k >= 0; k-- {
						delta := limbs[k] + carry
						carry = 0
						if delta < limbs[k] {
							carry = 1
						}
						if delta == 0 {
							continue
						}
						next := slot[k].Add(delta)
						if next < delta {
							carry++
						}
					}
				}
			})
		}
	})
}

// BenchmarkAblationTopology compares the tree Allreduce (Reduce+Bcast)
// against recursive doubling on the MPI substrate — both bit-identical for
// the HP op, differing only in rounds and message volume.
func BenchmarkAblationTopology(b *testing.B) {
	p := core.Params384
	local, err := core.FromFloat64(p, 1.25)
	if err != nil {
		b.Fatal(err)
	}
	payload := mpi.EncodeHP(local)
	for _, size := range []int{8, 16, 32} {
		op := mpi.OpSumHP(p)
		b.Run(bname("tree", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(size, func(c *mpi.Comm) error {
					_, err := c.Allreduce(payload, op)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bname("recursive_doubling", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(size, func(c *mpi.Comm) error {
					_, err := c.AllreduceRD(payload, op)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScan prices the reproducible prefix sum against a naive float64
// scan.
func BenchmarkScan(b *testing.B) {
	xs := uniformSet(1 << 14)
	b.Run("float64_naive", func(b *testing.B) {
		out := make([]float64, len(xs))
		for i := 0; i < b.N; i++ {
			s := 0.0
			for j, x := range xs {
				s += x
				out[j] = s
			}
		}
	})
	b.Run("hp_exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scan.Inclusive(core.Params384, xs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRBLAS prices the reproducible BLAS-1 layer.
func BenchmarkRBLAS(b *testing.B) {
	xs := uniformSet(1 << 14)
	ys := uniformSet(1 << 14)
	cfg := rblas.Default()
	b.Run("Sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rblas.Sum(cfg, xs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rblas.Dot(cfg, xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Nrm2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rblas.Nrm2(cfg, xs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDotProduct prices the exact dot product against the plain
// float64 inner loop.
func BenchmarkDotProduct(b *testing.B) {
	n := 1 << 14
	xs := uniformSet(n)
	ys := uniformSet(n)
	b.Run("float64", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			s := 0.0
			for j := range xs {
				s += xs[j] * ys[j]
			}
			sink += s
		}
		_ = sink
	})
	b.Run("exact_hp512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Dot(core.Params512, xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFacadeParallelSum exercises the public entry point end to end.
func BenchmarkFacadeParallelSum(b *testing.B) {
	xs := uniformSet(1 << 16)
	for _, workers := range []int{1, 4} {
		b.Run(bname("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ParallelSum(Params384, xs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func bname(prefix string, n int) string {
	return prefix + "_" + strconv.Itoa(n)
}
