package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestAtomicArrayLayout(t *testing.T) {
	a := NewAtomicArray(Params384, 4)
	if a.Len() != 4 {
		t.Errorf("Len = %d", a.Len())
	}
	if a.Params() != Params384 {
		t.Error("Params")
	}
	// Stride is a cache-line multiple and covers N limbs.
	if a.stride%cacheLineWords != 0 || a.stride < Params384.N {
		t.Errorf("stride = %d", a.stride)
	}
	// Adjacent slots do not overlap.
	if err := a.AddFloat64(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFloat64(1, 2.5); err != nil {
		t.Fatal(err)
	}
	if a.Snapshot(0).Float64() != 1.5 || a.Snapshot(1).Float64() != 2.5 {
		t.Error("slots interfere")
	}
	if a.Snapshot(2).Float64() != 0 {
		t.Error("untouched slot dirty")
	}
	sum, err := a.Combine()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Float64() != 4 {
		t.Errorf("Combine = %g", sum.Float64())
	}
	a.Reset()
	if s, _ := a.Combine(); !s.IsZero() {
		t.Error("Reset incomplete")
	}
}

func TestAtomicArrayConcurrentMatchesSequential(t *testing.T) {
	p := Params384
	const workers = 8
	const perWorker = 2000
	const slots = 16
	r := rng.New(93)
	xs := rng.UniformSet(r, workers*perWorker, -0.5, 0.5)

	seq := NewAccumulator(p)
	seq.AddAll(xs)

	for _, cas := range []bool{false, true} {
		bank := NewAtomicArray(p, slots)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, slice []float64) {
				defer wg.Done()
				scratch := New(p)
				for i, x := range slice {
					if err := scratch.SetFloat64(x); err != nil {
						t.Error(err)
						return
					}
					slot := (w + i) % slots
					if cas {
						bank.AddHPCAS(slot, scratch)
					} else {
						bank.AddHP(slot, scratch)
					}
				}
			}(w, xs[w*perWorker:(w+1)*perWorker])
		}
		wg.Wait()
		got, err := bank.Combine()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(seq.Sum()) {
			t.Errorf("cas=%v: bank sum differs from sequential", cas)
		}
	}
}

func TestAtomicArrayBatchFlushMatchesSequential(t *testing.T) {
	p := Params384
	const workers = 8
	const perWorker = 2000
	const slots = 4
	xs := rng.UniformSet(rng.New(94), workers*perWorker, -0.5, 0.5)

	seq := NewAccumulator(p)
	seq.AddAll(xs)

	bank := NewAtomicArray(p, slots)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, slice []float64) {
			defer wg.Done()
			// Flush in several sub-blocks through one reused scratch to
			// exercise the reset-and-continue path.
			scratch := NewSuper(p)
			for len(slice) > 0 {
				n := min(512, len(slice))
				if err := bank.AddSlice(w%slots, slice[:n], scratch); err != nil {
					t.Error(err)
					return
				}
				slice = slice[n:]
			}
		}(w, xs[w*perWorker:(w+1)*perWorker])
	}
	wg.Wait()
	got, err := bank.Combine()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seq.Sum()) {
		t.Error("bulk-flushed bank sum differs from sequential")
	}
}

func TestAtomicArrayAddSliceFaults(t *testing.T) {
	p := Params128
	bank := NewAtomicArray(p, 1)
	// nil scratch allocates internally; the NaN is reported and skipped,
	// finite elements still land.
	err := bank.AddSlice(0, []float64{1.5, math.NaN(), 2.5}, nil)
	if err != ErrNotFinite {
		t.Fatalf("err = %v, want ErrNotFinite", err)
	}
	if got := bank.Snapshot(0).Float64(); got != 4 {
		t.Errorf("slot = %g, want 4", got)
	}
	// A reused scratch carries no state or error across calls.
	scratch := NewSuper(p)
	if err := bank.AddSlice(0, []float64{1e300}, scratch); err != ErrOverflow {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	if err := bank.AddSlice(0, []float64{1}, scratch); err != nil {
		t.Fatal(err)
	}
	if got := bank.Snapshot(0).Float64(); got != 5 {
		t.Errorf("slot = %g, want 5", got)
	}
}

func TestAtomicArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("count=0 accepted")
		}
	}()
	NewAtomicArray(Params128, 0)
}

func TestAtomicArrayParamMismatch(t *testing.T) {
	a := NewAtomicArray(Params128, 2)
	x := New(Params192)
	defer func() {
		if recover() == nil {
			t.Error("param mismatch accepted")
		}
	}()
	a.AddHP(0, x)
}
