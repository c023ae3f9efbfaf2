//go:build amd64 && !purego

#include "textflag.h"

// Byte reversal within each 8-byte lane: the VPSHUFB control that turns
// four native float64s into their big-endian wire bytes.
DATA bswapMask<>+0x00(SB)/8, $0x0001020304050607
DATA bswapMask<>+0x08(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+0x10(SB)/8, $0x0001020304050607
DATA bswapMask<>+0x18(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswapMask<>(SB), RODATA|NOPTR, $32

// func bswap64AVX2(dst *byte, src *float64, n int)
//
// One 32-byte load, shuffle and store per four values; n is a multiple of
// 4, so no access reaches past either buffer.
TEXT ·bswap64AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVDQU bswapMask<>(SB), Y1
	XORQ BX, BX
loop:
	CMPQ BX, CX
	JGE  done
	VMOVDQU (SI)(BX*8), Y0
	VPSHUFB Y1, Y0, Y0
	VMOVDQU Y0, (DI)(BX*8)
	ADDQ $4, BX
	JMP  loop
done:
	VZEROUPPER
	RET
