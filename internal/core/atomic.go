package core

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Atomic is an HP accumulator that many goroutines may add to concurrently,
// implementing the paper's §III.B.2 atomicity property: each of the N limb
// additions is performed with one atomic read-modify-write, carries are
// computed thread-locally from the observed old/new values, and the final
// state equals the sequential sum regardless of interleaving (limb-wise
// fetch-adds commute, and each adder injects exactly the carries its own
// addend produced).
//
// Two flavors are provided: AddHP uses the hardware fetch-add
// (atomic.AddUint64, LOCK XADD on amd64); AddHPCAS uses the
// compare-and-swap loop the paper describes, since CAS is the only primitive
// it assumes is available (e.g. in CUDA). Both produce identical results;
// the ablation benchmark compares their throughput under contention.
type Atomic struct {
	p     Params
	limbs []atomic.Uint64 // big-endian, like HP
}

// NewAtomic returns a zeroed atomic accumulator with parameters p.
func NewAtomic(p Params) *Atomic {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Atomic{p: p, limbs: make([]atomic.Uint64, p.N)}
}

// Params returns the accumulator's HP parameters.
func (a *Atomic) Params() Params { return a.p }

// AddHP atomically adds x to the accumulator using fetch-add per limb.
// Carries out of the most significant limb wrap, as in two's-complement
// hardware; the caller is responsible for choosing parameters with enough
// headroom (overflow detection by sign comparison is inherently racy across
// limbs and is therefore not attempted here, matching the paper).
func (a *Atomic) AddHP(x *HP) {
	if x.p != a.p {
		panic(ErrParamMismatch)
	}
	var carry, depth uint64
	for i := a.p.N - 1; i >= 0; i-- {
		if carry != 0 {
			depth++ // local bookkeeping only; free next to the LOCK XADD below
		}
		delta := x.limbs[i] + carry
		carry = 0
		if delta < x.limbs[i] { // delta wrapped: x.limbs[i] was all ones and carry was 1
			carry = 1
		}
		if delta == 0 {
			continue // nothing to add to this limb; carry (if any) moves up
		}
		next := a.limbs[i].Add(delta)
		if next < delta { // the fetch-add wrapped: carry out of this limb
			carry++
		}
	}
	if telemetry.Enabled() {
		mAddHP.Inc()
		mCarryDepth.Observe(float64(depth))
	}
}

// casRaceHook, when non-nil, runs in AddHPCAS between a limb's Load and
// its CompareAndSwap: a test-only seam that lets a test play a competing
// adder on limb i and make the CAS lose deterministically.
var casRaceHook func(a *Atomic, i int)

// AddHPCAS is AddHP implemented with a compare-and-swap loop per limb, the
// construction the paper demonstrates on CUDA.
func (a *Atomic) AddHPCAS(x *HP) {
	if x.p != a.p {
		panic(ErrParamMismatch)
	}
	var carry, depth, retries uint64
	for i := a.p.N - 1; i >= 0; i-- {
		if carry != 0 {
			depth++
		}
		delta := x.limbs[i] + carry
		carry = 0
		if delta < x.limbs[i] {
			carry = 1
		}
		if delta == 0 {
			continue
		}
		for {
			old := a.limbs[i].Load()
			next, co := bits.Add64(old, delta, 0)
			if casRaceHook != nil {
				casRaceHook(a, i)
			}
			if a.limbs[i].CompareAndSwap(old, next) {
				carry += co
				break
			}
			retries++ // lost the race to a concurrent adder on this limb
		}
	}
	if telemetry.Enabled() {
		mAddHPCAS.Inc()
		mCASRetries.Add(retries)
		mCarryDepth.Observe(float64(depth))
	}
}

// AddBatch flushes a locally accumulated superaccumulator into the shared
// sum with a single full-width pass of fetch-adds: b is spilled, its
// canonical limbs are added like AddHP, and b is reset so the caller can
// keep accumulating into it. A whole block of summands therefore costs at
// most N atomic operations instead of up to two per element. b's sticky
// conversion fault (if any) is returned and cleared with the reset.
func (a *Atomic) AddBatch(b *SuperAccumulator) error {
	err := b.Err()
	a.AddHP(b.Sum())
	b.Reset()
	return err
}

// AddFloat64 atomically adds the float64 x via the fused sparse kernel:
// the value decomposes thread-locally into a stack-resident two-limb
// window (no scratch *HP required), and only the limbs the exponent
// selects — plus actual carries — are touched with fetch-adds. The final
// state is identical to converting into an HP scratch and calling AddHP,
// for every interleaving.
func (a *Atomic) AddFloat64(x float64) error {
	if x == 0 {
		return nil
	}
	d, err := decomposeFloat64(a.p, x)
	if err != nil {
		return err
	}
	var depth uint64
	if d.neg {
		depth = atomicSubSparse(a.limbs, d)
	} else {
		depth = atomicAddSparse(a.limbs, d)
	}
	if telemetry.Enabled() {
		mAddHP.Inc()
		mCarryDepth.Observe(float64(depth))
	}
	return nil
}

// AddFloat64CAS is AddFloat64 implemented with compare-and-swap loops per
// touched limb, matching AddHPCAS (the primitive the paper assumes on
// CUDA).
func (a *Atomic) AddFloat64CAS(x float64) error {
	if x == 0 {
		return nil
	}
	d, err := decomposeFloat64(a.p, x)
	if err != nil {
		return err
	}
	var depth, retries uint64
	if d.neg {
		depth, retries = atomicSubSparseCAS(a.limbs, d)
	} else {
		depth, retries = atomicAddSparseCAS(a.limbs, d)
	}
	if telemetry.Enabled() {
		mAddHPCAS.Inc()
		mCASRetries.Add(retries)
		mCarryDepth.Observe(float64(depth))
	}
	return nil
}

// Snapshot copies the current limbs into a plain HP value. Unlike the limb
// additions, a multi-limb read is not atomic as a whole: Snapshot is only
// meaningful once all writers have finished (e.g. after a barrier or
// WaitGroup), which is how the paper's CUDA kernel reads its partial sums
// back after completion.
func (a *Atomic) Snapshot() *HP {
	z := New(a.p)
	for i := range a.limbs {
		z.limbs[i] = a.limbs[i].Load()
	}
	return z
}

// Reset zeroes the accumulator. Like Snapshot, it must not race with adds.
func (a *Atomic) Reset() {
	for i := range a.limbs {
		a.limbs[i].Store(0)
	}
}
