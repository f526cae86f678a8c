//go:build !purego

#include "textflag.h"

// The tile instructions are spelled as BYTE sequences because the Go
// assembler has no AMX mnemonics. Each carries its mnemonic beside it
// (VEX; tmm0 = C, tmm1 = A, tmm2 = B); the B load's SIB byte names DI as
// the stride register instead of SI (0x3A for 0x32) so the two operands
// can have different strides; the store's SIB byte (0x03) takes its
// stride from AX.

// TDP_STRIPE is the body the two stripe routines share, over the frame
// of their common Go signature: ldtilecfg cfg, then for each queued
// block i < blocks tilezero tmm0 · its k-chain, chain[i] × (tileloadd
// tmm1 · tileloadd tmm2 · TDP) · tilestored tmm0 → c + i·1024 (stride 64),
// then one tilerelease. TDP is one dot-product instruction,
// tmm0 += tmm1·tmm2. AX holds the C stride once the palette is loaded.
#define TDP_STRIPE(TDP) \
	MOVQ cfg+0(FP), AX \
	MOVQ c+8(FP), BX \
	MOVQ a+16(FP), R8 \
	MOVQ aStride+24(FP), SI \
	MOVQ b+32(FP), R9 \
	MOVQ bStride+40(FP), DI \
	MOVQ offs+48(FP), R10 \
	MOVQ chain+56(FP), R12 \
	MOVQ blocks+64(FP), R13 \
	/* ldtilecfg (AX) */ \
	BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0x00 \
	MOVQ $64, AX \
block: \
	/* tilezero tmm0 */ \
	BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xC0 \
	MOVQ 0(R12), R11 \
	TESTQ R11, R11 \
	JZ    store \
loop: \
	MOVQ 0(R10), CX \
	ADDQ R8, CX \
	MOVQ 8(R10), DX \
	ADDQ R9, DX \
	/* tileloadd (CX)(SI*1), tmm1 */ \
	BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x0C; BYTE $0x31 \
	/* tileloadd (DX)(DI*1), tmm2 */ \
	BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x14; BYTE $0x3A \
	TDP \
	ADDQ $16, R10 \
	DECQ R11 \
	JNZ  loop \
store: \
	/* tilestored tmm0, (BX)(AX*1) */ \
	BYTE $0xC4; BYTE $0xE2; BYTE $0x7A; BYTE $0x4B; BYTE $0x04; BYTE $0x03 \
	ADDQ $1024, BX \
	ADDQ $8, R12 \
	DECQ R13 \
	JNZ  block \
	/* tilerelease */ \
	BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0xC0 \
	RET

// tdpbusd tmm0 += tmm1 (u8) · tmm2 (s8)
#define TDPBUSD BYTE $0xC4; BYTE $0xE2; BYTE $0x69; BYTE $0x5E; BYTE $0xC1
// tdpbf16ps tmm0 += tmm1 (bf16) · tmm2 (bf16)
#define TDPBF16PS BYTE $0xC4; BYTE $0xE2; BYTE $0x6A; BYTE $0x5C; BYTE $0xC1

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xinuse() uint64
TEXT ·xinuse(SB), NOSPLIT, $0-8
	MOVL $1, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// func tdpbusdStripe(cfg *hwTileCfg, c *int32, a *byte, aStride uintptr, b *byte, bStride uintptr, offs *[2]uintptr, chain *uintptr, blocks int)
TEXT ·tdpbusdStripe(SB), NOSPLIT, $0-72
	TDP_STRIPE(TDPBUSD)

// func tdpbf16psStripe(cfg *hwTileCfg, c *float32, a *byte, aStride uintptr, b *byte, bStride uintptr, offs *[2]uintptr, chain *uintptr, blocks int)
TEXT ·tdpbf16psStripe(SB), NOSPLIT, $0-72
	TDP_STRIPE(TDPBF16PS)
