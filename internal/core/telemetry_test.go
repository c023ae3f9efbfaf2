package core

import (
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// forceCASRetries adds x into a fresh atomic accumulator adds times with
// AddHPCAS while casRaceHook plays a competing adder: on each of the first
// forced hook calls it adds one unit to the limb being CASed, so exactly
// that many CASes lose. It returns the CAS-retry counter delta, the final
// sum, and the exact oracle (adds·x plus every competing unit).
func forceCASRetries(t *testing.T, adds, forced int) (retries uint64, got, want *HP) {
	t.Helper()
	x := New(Params384)
	if err := x.SetFloat64(1.0 + 0x1p-40); err != nil {
		t.Fatal(err)
	}
	want = New(Params384)
	for k := 0; k < adds; k++ {
		want.Add(x)
	}
	calls := 0
	casRaceHook = func(a *Atomic, i int) {
		if calls < forced {
			calls++
			a.limbs[i].Add(1)
			unit := New(Params384)
			unit.limbs[i] = 1
			want.Add(unit)
		}
	}
	defer func() { casRaceHook = nil }()
	acc := NewAtomic(Params384)
	before := mCASRetries.Value()
	for k := 0; k < adds; k++ {
		acc.AddHPCAS(x)
	}
	if calls != forced {
		t.Fatalf("hook fired %d times, want %d", calls, forced)
	}
	return mCASRetries.Value() - before, acc.Snapshot(), want
}

// TestCASRetriesVisibleUnderContention asserts the satellite requirement:
// the CAS loop's silent retries must surface in core_cas_retries_total
// when adders collide — one count per lost CAS, and the sum still exact.
// Without the counter, contention on the paper's CAS construction is
// invisible.
func TestCASRetriesVisibleUnderContention(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	const forced = 7
	retries, got, want := forceCASRetries(t, 4, forced)
	if retries != forced {
		t.Fatalf("core_cas_retries_total moved by %d, want exactly %d", retries, forced)
	}
	if !got.Equal(want) {
		t.Fatalf("sum after forced retries %v, oracle %v", got, want)
	}
}

// TestCASRetryCounterDisabled checks the gate: with telemetry off the
// counter must not move even though CASes are lost.
func TestCASRetryCounterDisabled(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	retries, got, want := forceCASRetries(t, 4, 7)
	if retries != 0 {
		t.Fatalf("disabled telemetry recorded %d CAS retries", retries)
	}
	if !got.Equal(want) {
		t.Fatalf("sum after forced retries %v, oracle %v", got, want)
	}
}

// parallelAtomicSum sums xs into a fresh atomic accumulator with the given
// number of goroutines, using AddHP for even workers and AddHPCAS for odd
// ones (both flavors must behave identically under instrumentation).
func parallelAtomicSum(t *testing.T, xs []float64, workers int) *HP {
	t.Helper()
	acc := NewAtomic(Params384)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			scratch := New(Params384)
			lo := w * len(xs) / workers
			hi := (w + 1) * len(xs) / workers
			for _, x := range xs[lo:hi] {
				if err := scratch.SetFloat64(x); err != nil {
					panic(err)
				}
				if w%2 == 0 {
					acc.AddHP(scratch)
				} else {
					acc.AddHPCAS(scratch)
				}
			}
		}(w)
	}
	wg.Wait()
	return acc.Snapshot()
}

// TestOrderInvarianceWithTelemetry is the regression test for the
// instrumentation itself: a parallel sum with telemetry enabled must be
// bit-identical to the same sum with telemetry disabled and to the
// sequential reference. Counters and histograms live entirely outside
// accumulator state, so any divergence here means the instrumentation
// perturbed the arithmetic.
func TestOrderInvarianceWithTelemetry(t *testing.T) {
	// Deterministic mixed-sign, mixed-magnitude workload (splitmix-style
	// mixing; no shared test fixtures needed).
	xs := make([]float64, 4096)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range xs {
		state += 0x9E3779B97F4A7C15
		z := state
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		mant := float64(z>>11) / (1 << 53) // in [0,1)
		exp := int(z%80) - 40              // magnitudes 2^-40 .. 2^39
		x := (mant + 0.5) * pow2(exp)
		if z&1 == 1 {
			x = -x
		}
		xs[i] = x
	}

	prevOn := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prevOn)

	serial := NewAccumulator(Params384)
	serial.AddAll(xs)
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	off := parallelAtomicSum(t, xs, 8)

	telemetry.SetEnabled(true)
	on := parallelAtomicSum(t, xs, 8)
	telemetry.SetEnabled(false)

	if !off.Equal(serial.Sum()) {
		t.Errorf("parallel sum (telemetry off) differs from sequential:\n  got  %s\n  want %s",
			off, serial.Sum())
	}
	if !on.Equal(off) {
		t.Errorf("telemetry instrumentation perturbed the sum:\n  on  %s\n  off %s", on, off)
	}
}

// pow2 returns 2^e exactly for small |e|.
func pow2(e int) float64 {
	x := 1.0
	for ; e > 0; e-- {
		x *= 2
	}
	for ; e < 0; e++ {
		x /= 2
	}
	return x
}
