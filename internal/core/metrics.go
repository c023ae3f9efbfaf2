package core

import "repro/internal/telemetry"

// Hot-path metrics for the HP accumulators. All recording is gated by
// telemetry.Enabled(), so with telemetry off each instrumented call adds
// only an atomic load and a branch; with it on, the counters are sharded
// and never touch accumulator state, preserving bit-identical sums.
var (
	mAddHP = telemetry.NewCounter("core_addhp_total",
		"Atomic fetch-add HP additions (Atomic.AddHP calls).")
	mAddHPCAS = telemetry.NewCounter("core_addhp_cas_total",
		"Atomic CAS-loop HP additions (Atomic.AddHPCAS calls).")
	mCASRetries = telemetry.NewCounter("core_cas_retries_total",
		"Failed compare-and-swap attempts inside Atomic.AddHPCAS; each retry is one lost race against a concurrent adder.")
	mCarryDepth = telemetry.NewHistogram("core_carry_depth",
		"Limbs receiving a carry-in per atomic HP addition (cross-limb carry propagation depth).",
		telemetry.LinearBuckets(0, 1, 9))
	mOverflow = telemetry.NewCounter("core_overflow_total",
		"Overflow detections: conversions or signed additions exceeding the HP whole-part range.")
	mUnderflow = telemetry.NewCounter("core_underflow_total",
		"Underflow detections: conversions with significant bits below the HP fractional range.")
	mAdaptiveWidenings = telemetry.NewCounter("core_adaptive_widenings_total",
		"Adaptive accumulator precision promotions (format widenings).")
	mSuperAdds = telemetry.NewCounter("core_super_adds_total",
		"Values accumulated through the exponent-indexed superaccumulator (SuperAccumulator.AddSlice elements).")
	mSuperSpills = telemetry.NewCounter("core_super_spills_total",
		"SuperAccumulator spills that folded at least one touched bin into the canonical limbs.")
	mAdaptiveLimbs = telemetry.NewGauge("core_adaptive_limbs",
		"Current limb count N of the most recently widened adaptive accumulator.")
)

// countRangeErr classifies a conversion/accumulation error into the
// overflow/underflow counters. Called only on error paths.
func countRangeErr(err error) {
	switch err {
	case ErrOverflow:
		mOverflow.Inc()
	case ErrUnderflow:
		mUnderflow.Inc()
	}
}
