package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestAtomicMatchesSequential is DESIGN.md property 6: concurrent atomic
// accumulation from many goroutines must equal the sequential HP sum
// bit-for-bit, for both the fetch-add and CAS flavors.
func TestAtomicMatchesSequential(t *testing.T) {
	p := Params384
	const workers = 8
	const perWorker = 2000
	r := rng.New(99)
	xs := rng.UniformSet(r, workers*perWorker, -0.5, 0.5)

	seq := NewAccumulator(p)
	seq.AddAll(xs)
	if seq.Err() != nil {
		t.Fatal(seq.Err())
	}

	for _, flavor := range []struct {
		name string
		add  func(a *Atomic, x *HP)
	}{
		{"fetch-add", func(a *Atomic, x *HP) { a.AddHP(x) }},
		{"cas", func(a *Atomic, x *HP) { a.AddHPCAS(x) }},
	} {
		t.Run(flavor.name, func(t *testing.T) {
			acc := NewAtomic(p)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(slice []float64) {
					defer wg.Done()
					scratch := New(p)
					for _, x := range slice {
						if err := scratch.SetFloat64(x); err != nil {
							t.Error(err)
							return
						}
						flavor.add(acc, scratch)
					}
				}(xs[w*perWorker : (w+1)*perWorker])
			}
			wg.Wait()
			if got := acc.Snapshot(); !got.Equal(seq.Sum()) {
				t.Errorf("atomic sum %#x != sequential %#x",
					got.Limbs(), seq.Sum().Limbs())
			}
		})
	}
}

// Carries crossing limb boundaries must survive concurrent interleaving:
// have every worker add a value that saturates the fractional limbs so
// nearly every addition produces inter-limb carries.
func TestAtomicCarryStress(t *testing.T) {
	p := Params{N: 3, K: 2}
	const workers = 8
	const perWorker = 5000
	// 2^-64 - 2^-117: 53 significant bits at the very bottom of limb 1,
	// guaranteeing carry chains into limb 0 as the sum accumulates.
	v := 0x1.fffffffffffffp-65
	seq := NewAccumulator(p)
	for i := 0; i < workers*perWorker; i++ {
		seq.Add(v)
	}
	if seq.Err() != nil {
		t.Fatal(seq.Err())
	}

	acc := NewAtomic(p)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := acc.AddFloat64(v); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := acc.Snapshot(); !got.Equal(seq.Sum()) {
		t.Errorf("carry stress: atomic %#x != sequential %#x",
			got.Limbs(), seq.Sum().Limbs())
	}
}

// Negative and positive values interleaved concurrently must cancel exactly.
func TestAtomicZeroSumConcurrent(t *testing.T) {
	p := Params192
	r := rng.New(3)
	xs := rng.ZeroSum(r, 16384, 0.001)
	acc := NewAtomic(p)
	var wg sync.WaitGroup
	const workers = 16
	chunk := len(xs) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slice []float64) {
			defer wg.Done()
			for _, x := range slice {
				if err := acc.AddFloat64(x); err != nil {
					t.Error(err)
					return
				}
			}
		}(xs[w*chunk : (w+1)*chunk])
	}
	wg.Wait()
	if got := acc.Snapshot(); !got.IsZero() {
		t.Errorf("concurrent zero-sum: got %s, want exact 0", got)
	}
}

func TestAtomicResetAndParams(t *testing.T) {
	p := Params192
	acc := NewAtomic(p)
	if acc.Params() != p {
		t.Errorf("Params = %v", acc.Params())
	}
	if err := acc.AddFloat64(1.5); err != nil {
		t.Fatal(err)
	}
	if acc.Snapshot().Float64() != 1.5 {
		t.Error("add lost")
	}
	acc.Reset()
	if !acc.Snapshot().IsZero() {
		t.Error("Reset did not zero")
	}
}

func TestAtomicParamMismatchPanics(t *testing.T) {
	acc := NewAtomic(Params192)
	x := New(Params128)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	acc.AddHP(x)
}

func TestAtomicRangeErrorPropagates(t *testing.T) {
	acc := NewAtomic(Params128)
	if err := acc.AddFloat64(1e300); err != ErrOverflow {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
	if !acc.Snapshot().IsZero() {
		t.Error("failed conversion must not modify the accumulator")
	}
}

// TestBatchAtomicFlush: Atomic.AddBatch drains a local superaccumulator
// into the shared sum (resetting it for reuse) and reports its sticky
// fault.
func TestBatchAtomicFlush(t *testing.T) {
	p := Params192
	dst := NewAtomic(p)
	s := NewSuper(p)
	s.AddSlice([]float64{1.5, -0.25, math.NaN()})
	if err := dst.AddBatch(s); err != ErrNotFinite {
		t.Fatalf("flush err = %v, want ErrNotFinite", err)
	}
	if s.Err() != nil || s.Float64() != 0 {
		t.Fatal("superaccumulator not reset after flush")
	}
	s.AddSlice([]float64{2})
	if err := dst.AddBatch(s); err != nil {
		t.Fatal(err)
	}
	if got := dst.Snapshot().Float64(); got != 3.25 {
		t.Errorf("atomic sum = %g, want 3.25", got)
	}
}
