// Package repro is an order-invariant summation library for Go,
// reproducing the High-Precision (HP) method of Small, Kalia, Nakano and
// Vashishta, "Order-Invariant Real Number Summation: Circumventing Accuracy
// Loss for Multimillion Summands on Multiple Parallel Architectures"
// (IEEE IPDPS 2016).
//
// Floating-point addition is not associative, so a parallel reduction's
// result depends on thread count and schedule. The HP method represents a
// real number as N 64-bit limbs forming one two's-complement fixed-point
// integer with k fractional limbs; addition becomes exact integer
// arithmetic, making the sum of any value set bit-identical regardless of
// summation order, goroutine count, or machine.
//
// # Quick start
//
//	acc := repro.NewAccumulator(repro.Params384)
//	for _, x := range values {
//		acc.Add(x)
//	}
//	sum, err := acc.Float64(), acc.Err()
//
// For concurrent accumulation use NewAtomic; for inputs of unknown range
// use NewAdaptive, which widens its format on demand (the paper's proposed
// future extension). ParallelSum is a convenience that fans a slice out
// over goroutines and combines the partials deterministically.
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/omp"
)

// Params selects an HP format: N total 64-bit limbs with K fractional
// limbs. Range is ±2^(64(N-K)-1); resolution is 2^(-64K).
type Params = core.Params

// Preset formats from the paper's evaluation.
var (
	// Params128 is HP(N=2, k=1): range ±9.2e18, resolution 5.4e-20.
	Params128 = core.Params128
	// Params192 is HP(N=3, k=2), the paper's Figure 1 configuration.
	Params192 = core.Params192
	// Params384 is HP(N=6, k=3), the strong-scaling configuration and a
	// good general default: range ±3.1e57, resolution 1.6e-58.
	Params384 = core.Params384
	// Params512 is HP(N=8, k=4), the high-precision configuration.
	Params512 = core.Params512
)

// Errors surfaced by conversions and accumulation.
var (
	// ErrNotFinite reports conversion of NaN or ±Inf.
	ErrNotFinite = core.ErrNotFinite
	// ErrOverflow reports a value or sum beyond the format's range.
	ErrOverflow = core.ErrOverflow
	// ErrUnderflow reports a value with bits below the format's resolution.
	ErrUnderflow = core.ErrUnderflow
)

// HP is a single high-precision fixed-point value.
type HP = core.HP

// Accumulator sums float64 values into one HP number sequentially. See
// core.Accumulator for the full method set.
type Accumulator = core.Accumulator

// Atomic is an HP accumulator safe for concurrent Add from many goroutines.
type Atomic = core.Atomic

// Adaptive is an HP accumulator that widens its format at runtime to fit
// any finite float64, eliminating the a-priori range choice.
type Adaptive = core.Adaptive

// SuperAccumulator is the exponent-indexed superaccumulator: the fastest
// sequential path, absorbing each value as a single indexed integer add
// into a per-exponent bin and folding the bins into canonical form at
// counted spill points. Its canonical sums are bit-identical to
// Accumulator's. See core.SuperAccumulator.
type SuperAccumulator = core.SuperAccumulator

// NewSuper returns a zeroed exponent-indexed superaccumulator with format p.
func NewSuper(p Params) *SuperAccumulator { return core.NewSuper(p) }

// NewAccumulator returns a zeroed sequential accumulator with format p.
func NewAccumulator(p Params) *Accumulator { return core.NewAccumulator(p) }

// NewAtomic returns a zeroed concurrent accumulator with format p.
func NewAtomic(p Params) *Atomic { return core.NewAtomic(p) }

// NewAdaptive returns an adaptive accumulator starting from format p
// (Params128 is a sensible seed; it grows as needed).
func NewAdaptive(p Params) *Adaptive { return core.NewAdaptive(p) }

// NewHP returns a zero HP value with format p, for callers that work with
// raw values (serialization, comparisons, scratch buffers).
func NewHP(p Params) *HP { return core.New(p) }

// FromFloat64 converts x exactly into a new HP value with format p.
func FromFloat64(p Params, x float64) (*HP, error) { return core.FromFloat64(p, x) }

// Sum returns the order-invariant sum of xs under format p, rounded to
// float64, plus the first range error encountered (if any).
func Sum(p Params, xs []float64) (float64, error) { return core.Sum(p, xs) }

// SumHP is Sum returning the full-precision HP result.
func SumHP(p Params, xs []float64) (*HP, error) { return core.SumHP(p, xs) }

// ParallelSum partitions xs over the given number of goroutines, reduces
// each block locally, and combines the partial sums. Because HP addition is
// exact integer arithmetic, the result is bit-identical to the sequential
// sum for every worker count.
func ParallelSum(p Params, xs []float64, workers int) (float64, error) {
	hp, err := ParallelSumHP(p, xs, workers)
	if err != nil {
		return 0, err
	}
	return hp.Float64(), nil
}

// ParallelSumHP is ParallelSum returning the full-precision HP result.
//
// Each worker folds its block through the exponent-indexed superaccumulator,
// so block partials are carried exactly mod 2^(64N) with carries deferred in
// per-exponent bins; the master combines them in ascending thread order
// through a checked accumulator. Conversion faults (NaN/Inf/range) are
// detected identically to the sequential path; a partial that transiently
// exceeds the signed range but cancels before its combine point is not an
// error, matching the scan package's wrap-and-check-at-combine policy.
func ParallelSumHP(p Params, xs []float64, workers int) (*HP, error) {
	if workers < 1 {
		return nil, fmt.Errorf("repro: worker count %d", workers)
	}
	team := omp.NewTeam(workers)
	total := omp.Reduce(team, len(xs),
		func(int) *core.SuperAccumulator { return core.NewSuper(p) },
		func(local *core.SuperAccumulator, _, lo, hi int) { local.AddSlice(xs[lo:hi]) },
		func(into, from *core.SuperAccumulator) { into.MergeChecked(from) })
	if err := total.Err(); err != nil {
		return nil, err
	}
	return total.Sum(), nil
}

// ErrProductRange reports a product outside the error-free transformation
// range of Dot/AddProduct.
var ErrProductRange = core.ErrProductRange

// Dot returns the exact dot product of xs and ys, correctly rounded: each
// product is split error-free (Dekker TwoProduct) and both halves are
// accumulated exactly, so the result is order-invariant and bit-identical
// on every architecture.
func Dot(p Params, xs, ys []float64) (float64, error) { return core.Dot(p, xs, ys) }

// DotHP is Dot returning the full-precision HP result.
func DotHP(p Params, xs, ys []float64) (*HP, error) { return core.DotHP(p, xs, ys) }

// AdaptiveSum sums arbitrary finite values with automatic format widening
// and returns the correctly rounded float64 result.
func AdaptiveSum(xs []float64) (float64, error) {
	a := core.NewAdaptive(Params128)
	if err := a.AddAll(xs); err != nil {
		return 0, err
	}
	return a.Float64(), nil
}
