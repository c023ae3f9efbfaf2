//go:build linux && amd64 && !purego

package core

import (
	"math"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/wire"
)

// TestAsmChunkAtPageBoundary places input slices flush against an
// mmap-guarded PROT_NONE page and runs the AVX2 front loop over them: any
// vector load that reads even one byte past the slice end faults instead
// of silently returning garbage. This pins the loop's contract that the
// 32-byte loads are only issued when four full elements remain.
func TestAsmChunkAtPageBoundary(t *testing.T) {
	requireAVX2(t)
	mem := guardedPage(t)
	page := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), len(mem)/8)
	vals := batchValues(Params384, 17, len(page))
	copy(page, vals)
	page[len(page)-1] = 0 // gate miss as the very last element before the guard
	asm, gen := superTwins(t, Params384)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, len(page)} {
		xs := page[len(page)-n:] // ends exactly at the guard page
		asm.AddSlice(xs)
		gen.AddSlice(xs)
	}
	diffSupers(t, asm, gen, nil)
}

// TestAsmChunkBEAtPageBoundary is the same guard for big-endian payloads:
// the payload's last byte is the last readable byte, at every length.
func TestAsmChunkBEAtPageBoundary(t *testing.T) {
	requireAVX2(t)
	mem := guardedPage(t)
	vals := batchValues(Params384, 19, len(mem)/8)
	vals[len(vals)-1] = math.Inf(1) // gate miss as the very last value
	payload := wire.AppendFloat64s(mem[:0:len(mem)], vals)
	asm, gen := superTwins(t, Params384)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, len(vals)} {
		p := payload[len(payload)-8*n:] // ends exactly at the guard page
		asm.AddFloat64sBE(p)
		gen.AddFloat64sBE(p)
	}
	if d := spilledDiff(asm, gen); d != "" {
		t.Fatal(d)
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
