package core

import (
	"math/bits"
	"math/rand"
	"testing"
)

// genericAddVec is the reference full-width wrapping add the kernels must
// reproduce: the loop AddHP and the merges used before unrolling.
func genericAddVec(dst, src []uint64) {
	var c uint64
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i], c = bits.Add64(dst[i], src[i], c)
	}
}

// kernelWords returns adversarial limb values: carry-chain extremes plus
// random words.
func kernelWords(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = ^uint64(0)
		case 1:
			out[i] = 0
		case 2:
			out[i] = 1 << 63
		default:
			out[i] = r.Uint64()
		}
	}
	return out
}

// TestKernelsMatchGeneric: every unrolled kernel is bit-identical to the
// generic loop on adversarial limb patterns — full carry ripples and
// wraps past the top limb.
func TestKernelsMatchGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, k := range []*limbKernel{kern2, kern3, kern6, kern8} {
		for trial := 0; trial < 500; trial++ {
			dst := kernelWords(r, k.n)
			src := kernelWords(r, k.n)
			wantDst := append([]uint64(nil), dst...)
			genericAddVec(wantDst, src)
			k.addVec(dst, src)
			for i := range dst {
				if dst[i] != wantDst[i] {
					t.Fatalf("n=%d trial %d: addVec limbs %016x, want %016x", k.n, trial, dst, wantDst)
				}
			}
		}
	}
}

// TestKernelSelection: NewSuper picks the unrolled kernel exactly for the
// shipped widths and falls back to the generic loop elsewhere, and the
// selected kernel's width matches the format.
func TestKernelSelection(t *testing.T) {
	cases := []struct {
		p    Params
		want int // 0 = generic
	}{
		{Params128, 2}, {Params192, 3}, {Params384, 6}, {Params512, 8},
		{Params{N: 2, K: 0}, 2}, {Params{N: 3, K: 0}, 3},
		{Params{N: 1, K: 0}, 0}, {Params{N: 4, K: 2}, 0},
		{Params{N: 5, K: 4}, 0}, {Params{N: 20, K: 17}, 0},
	}
	for _, c := range cases {
		s := NewSuper(c.p)
		if c.want == 0 {
			if s.kern != nil {
				t.Errorf("%v: expected generic fallback, got kernel", c.p)
			}
			continue
		}
		if s.kern == nil || s.kern.n != c.want {
			t.Errorf("%v: super kernel = %v, want n=%d", c.p, s.kern, c.want)
		}
	}
}
