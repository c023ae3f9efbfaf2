package main

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// l3Bytes returns the last-level (level 3) cache size from CPUID's
// deterministic cache parameters (leaf 4 on Intel, 0x8000001D on AMD), or 0
// when the processor does not report one.
func l3Bytes() int {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 4 {
		if n := l3From(4); n > 0 {
			return n
		}
	}
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt >= 0x8000001D {
		return l3From(0x8000001D)
	}
	return 0
}

func l3From(leaf uint32) int {
	for sub := uint32(0); sub < 16; sub++ {
		eax, ebx, ecx, _ := cpuid(leaf, sub)
		if eax&0x1f == 0 { // no more caches
			break
		}
		if (eax>>5)&7 != 3 {
			continue
		}
		ways := int(ebx>>22) + 1
		parts := int((ebx>>12)&0x3ff) + 1
		line := int(ebx&0xfff) + 1
		sets := int(ecx) + 1
		return ways * parts * line * sets
	}
	return 0
}
