package core

import (
	"math/bits"
	"sync/atomic"
)

// AtomicArray is a contiguous bank of HP atomic accumulators — the "256
// partial sums" structure of the paper's CUDA experiment — laid out so
// that no two accumulators share a cache line. With a []*Atomic the limbs
// of neighbouring accumulators can land on one line and every atomic add
// then ping-pongs the line between cores (false sharing); the padded
// layout removes that coupling. BenchmarkAblationPadding quantifies the
// difference.
type AtomicArray struct {
	p      Params
	stride int // limbs per slot, padded to a multiple of the cache line
	limbs  []atomic.Uint64
}

// cacheLineWords is the assumed cache line size in 8-byte words.
const cacheLineWords = 8

// NewAtomicArray returns a bank of count zeroed accumulators with
// parameters p. It panics if p is invalid or count < 1.
func NewAtomicArray(p Params, count int) *AtomicArray {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if count < 1 {
		panic("core: AtomicArray count < 1")
	}
	stride := (p.N + cacheLineWords - 1) / cacheLineWords * cacheLineWords
	return &AtomicArray{
		p:      p,
		stride: stride,
		limbs:  make([]atomic.Uint64, stride*count),
	}
}

// Params returns the accumulators' HP parameters.
func (a *AtomicArray) Params() Params { return a.p }

// Len returns the number of accumulators in the bank.
func (a *AtomicArray) Len() int { return len(a.limbs) / a.stride }

// slot returns the limb window of accumulator i (most significant first).
func (a *AtomicArray) slot(i int) []atomic.Uint64 {
	return a.limbs[i*a.stride : i*a.stride+a.p.N]
}

// AddHP atomically adds x to accumulator i using fetch-add per limb, with
// the same carry hand-off as Atomic.AddHP.
func (a *AtomicArray) AddHP(i int, x *HP) {
	if x.p != a.p {
		panic(ErrParamMismatch)
	}
	s := a.slot(i)
	var carry uint64
	for j := a.p.N - 1; j >= 0; j-- {
		delta := x.limbs[j] + carry
		carry = 0
		if delta < x.limbs[j] {
			carry = 1
		}
		if delta == 0 {
			continue
		}
		next := s[j].Add(delta)
		if next < delta {
			carry++
		}
	}
}

// AddHPCAS is AddHP with compare-and-swap loops, matching Atomic.AddHPCAS.
func (a *AtomicArray) AddHPCAS(i int, x *HP) {
	if x.p != a.p {
		panic(ErrParamMismatch)
	}
	s := a.slot(i)
	var carry uint64
	for j := a.p.N - 1; j >= 0; j-- {
		delta := x.limbs[j] + carry
		carry = 0
		if delta < x.limbs[j] {
			carry = 1
		}
		if delta == 0 {
			continue
		}
		for {
			old := s[j].Load()
			next, co := bits.Add64(old, delta, 0)
			if s[j].CompareAndSwap(old, next) {
				carry += co
				break
			}
		}
	}
}

// AddFloat64 atomically adds the float64 x to accumulator i via the fused
// sparse kernel: the value decomposes into a stack-resident two-limb
// window, so no caller-owned scratch HP is needed.
func (a *AtomicArray) AddFloat64(i int, x float64) error {
	if x == 0 {
		return nil
	}
	d, err := decomposeFloat64(a.p, x)
	if err != nil {
		return err
	}
	s := a.slot(i)
	if d.neg {
		atomicSubSparse(s, d)
	} else {
		atomicAddSparse(s, d)
	}
	return nil
}

// AddFloat64CAS is AddFloat64 with compare-and-swap loops, matching
// AddHPCAS.
func (a *AtomicArray) AddFloat64CAS(i int, x float64) error {
	if x == 0 {
		return nil
	}
	d, err := decomposeFloat64(a.p, x)
	if err != nil {
		return err
	}
	s := a.slot(i)
	if d.neg {
		atomicSubSparseCAS(s, d)
	} else {
		atomicAddSparseCAS(s, d)
	}
	return nil
}

// AddBatch flushes a locally accumulated superaccumulator into
// accumulator i with one full-width pass of fetch-adds (at most N atomic
// operations for the whole block, versus up to two per element through
// AddFloat64). b is spilled, added, and reset so the caller can keep
// accumulating into it; its sticky conversion fault (if any) is returned
// and cleared with the reset.
func (a *AtomicArray) AddBatch(i int, b *SuperAccumulator) error {
	err := b.Err()
	a.AddHP(i, b.Sum())
	b.Reset()
	return err
}

// AddSlice accumulates xs thread-locally through the superaccumulator and
// flushes the block total into accumulator i with a single full-width
// atomic pass — the bulk path for block-partitioned writers. scratch is
// reset and reused (pass the same one across calls to stay
// allocation-free); a nil scratch allocates a private one. The first
// conversion fault in xs is returned; faulting elements do not contribute.
func (a *AtomicArray) AddSlice(i int, xs []float64, scratch *SuperAccumulator) error {
	if scratch == nil {
		scratch = NewSuper(a.p)
	} else {
		scratch.Reset()
	}
	scratch.AddSlice(xs)
	return a.AddBatch(i, scratch)
}

// Snapshot copies accumulator i into a plain HP value; as with Atomic, the
// read is only meaningful after all writers have finished.
func (a *AtomicArray) Snapshot(i int) *HP {
	z := New(a.p)
	s := a.slot(i)
	for j := range s {
		z.limbs[j] = s[j].Load()
	}
	return z
}

// Combine folds every accumulator into one HP sum (after writers finish).
func (a *AtomicArray) Combine() (*HP, error) {
	acc := NewAccumulator(a.p)
	for i := 0; i < a.Len(); i++ {
		acc.AddHP(a.Snapshot(i))
	}
	return acc.Sum(), acc.Err()
}

// Reset zeroes every accumulator; must not race with adds.
func (a *AtomicArray) Reset() {
	for i := range a.limbs {
		a.limbs[i].Store(0)
	}
}
