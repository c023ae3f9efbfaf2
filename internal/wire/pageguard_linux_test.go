//go:build linux && amd64 && !purego

package wire

import (
	"bytes"
	"math"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// TestAppendFloat64sAtPageBoundary runs the AVX2 encoder with both its
// source values and its destination bytes ending flush against a
// PROT_NONE page: a vector load or store one byte past either buffer
// faults instead of passing silently.
func TestAppendFloat64sAtPageBoundary(t *testing.T) {
	if !useAVX2 {
		if os.Getenv("REPRO_REQUIRE_ASM") != "" {
			t.Fatal("REPRO_REQUIRE_ASM set but the AVX2 encoder is not selected")
		}
		t.Skip("AVX2 encoder not selected on this machine")
	}
	src, dst := guardedPage(t), guardedPage(t)
	vals := unsafe.Slice((*float64)(unsafe.Pointer(&src[0])), len(src)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(0x3ff0_0000_0000_0000 + uint64(i)*0x9e37_79b9)
	}
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 31, 32, len(vals)} {
		xs := vals[len(vals)-n:]
		out := dst[len(dst)-8*n : len(dst)-8*n : len(dst)]
		got := AppendFloat64s(out, xs)
		if &got[0] != &dst[len(dst)-8*n] {
			t.Fatalf("n=%d: encoder reallocated a buffer of exact capacity", n)
		}
		want := make([]byte, 8*n)
		putFloat64sGeneric(want, xs)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: encoded bytes differ from the portable loop", n)
		}
	}
}

// guardedPage returns one read-write page whose next page is PROT_NONE,
// unmapped when the test ends.
func guardedPage(t *testing.T) []byte {
	t.Helper()
	pg := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*pg, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[pg:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[:pg:pg]
}
