// Package scan provides reproducible parallel prefix sums. A prefix sum's
// intermediate values are exactly the partial sums a reduction would form,
// so naive parallel scans inherit floating-point non-associativity twice
// over: both the block offsets and the in-block accumulations depend on
// the decomposition. Here every partial sum is carried exactly in HP
// fixed-point and rounded once per output element, so prefix[i] is the
// correctly rounded true prefix — bit-identical for every worker count.
//
// The algorithm is the standard two-phase blocked scan: phase 1 reduces
// each worker's block to an exact block total; the (cheap, sequential)
// offset pass accumulates exclusive block offsets; phase 2 re-walks each
// block from its exact offset emitting rounded prefixes.
//
// Error outcomes are decomposition-independent (wrap-and-check-final):
// phase 1 block partials and the offset pass run in wrapping mode, because
// a from-zero block partial may wrap for one worker count and not another
// even though two's-complement addition is exact mod 2^(64N) and the
// offsets come out bit-identical either way. Overflow is instead detected
// in phase 2, where every accumulator walks the true prefix trajectory —
// identical for every worker count — so both the values and the error are
// the same for workers=1 and workers=64. Conversion range errors
// (NaN/Inf/overflow/underflow of an input element) are per-element and
// reported from phase 1, earliest element first. See DESIGN.md §9.
package scan

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/omp"
)

// Inclusive computes the reproducible inclusive prefix sums of xs:
// out[i] = round(x_0 + ... + x_i), with the sum carried exactly. It
// returns the first conversion/overflow error encountered.
func Inclusive(p core.Params, xs []float64, workers int) ([]float64, error) {
	if workers < 1 {
		return nil, fmt.Errorf("scan: worker count %d", workers)
	}
	n := len(xs)
	out := make([]float64, n)
	if n == 0 {
		return out, nil
	}
	team := omp.NewTeam(workers)

	// Phase 1: exact block totals through the exponent-indexed
	// superaccumulator (inherently wrapping — deferred bins make per-add
	// overflow unobservable, which is exactly the policy here). A block
	// partial that wraps is not an error — only phase 2, which follows the
	// true prefix trajectory, decides overflow, so the verdict cannot depend
	// on where the block boundaries fell. Conversion errors are sticky per
	// block; scanning blocks in index order below reports the earliest one.
	totals := make([]*core.SuperAccumulator, workers)
	team.Run(func(tid int) {
		lo, hi := omp.StaticBlock(n, workers, tid)
		s := core.NewSuper(p)
		s.AddSlice(xs[lo:hi])
		totals[tid] = s
	})
	for _, s := range totals {
		if err := s.Err(); err != nil {
			return nil, err
		}
	}

	// Exclusive offsets: offsets[t] = exact (mod 2^(64N)) sum of blocks
	// < t — bit-identical to the sequential prefix state at that element,
	// wraps included, because multi-limb addition is associative mod
	// 2^(64N).
	offsets := make([]*core.HP, workers)
	running := core.NewAccumulator(p).AllowWrap()
	for t := 0; t < workers; t++ {
		offsets[t] = running.Sum().Clone()
		running.AddHP(totals[t].Sum())
	}
	if err := running.Err(); err != nil {
		return nil, err
	}

	// Phase 2: emit rounded prefixes from each exact offset through the
	// canonical accumulator, in wrapping mode so AddRound reports each
	// verdict instead of making it sticky. Its state is canonical after
	// every add, so every state equals the sequential prefix state
	// bit-for-bit and the sign-rule overflow verdict fires on exactly the
	// same elements for every worker count; the per-element first error
	// (conversion or overflow, whichever came first in element order)
	// likewise matches the sequential accumulator. AddRound rounds in place
	// through the accumulator's reused scratch, so the per-element loop
	// does not allocate.
	errs := make([]error, workers)
	team.Run(func(tid int) {
		lo, hi := omp.StaticBlock(n, workers, tid)
		acc := core.NewAccumulator(p).AllowWrap()
		acc.AddHP(offsets[tid])
		var firstErr error
		for i := lo; i < hi; i++ {
			v, overflow := acc.AddRound(xs[i])
			if firstErr == nil {
				if err := acc.Err(); err != nil {
					firstErr = err
				} else if overflow {
					firstErr = core.ErrOverflow
				}
			}
			out[i] = v
		}
		errs[tid] = firstErr
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Exclusive computes reproducible exclusive prefix sums:
// out[0] = 0, out[i] = round(x_0 + ... + x_(i-1)).
func Exclusive(p core.Params, xs []float64, workers int) ([]float64, error) {
	if workers < 1 {
		return nil, fmt.Errorf("scan: worker count %d", workers)
	}
	n := len(xs)
	out := make([]float64, n)
	if n == 0 {
		return out, nil
	}
	inc, err := Inclusive(p, xs[:n-1], workers)
	if err != nil {
		return nil, err
	}
	copy(out[1:], inc)
	return out, nil
}
