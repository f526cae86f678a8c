//go:build !purego

#include "textflag.h"

// The row kernels keep o's lanes in Y4 (and Y5 for a second group of
// eight), multiply one b row by its broadcast coefficient into Y6 (Y7)
// and add that product to the lanes: o + a·b, one VMULPS then one VADDPS
// per term, terms in argument order — the scalar expression's rounding
// sequence, lane by lane. AX is the byte offset into every row, CX the
// row length in bytes, DX the part of it that whole 16-lane groups cover.

// TERM16 adds A·B[lanes AX…AX+15] to Y4:Y5.
#define TERM16(B, A) \
	VMULPS (B)(AX*1), A, Y6 \
	VMULPS 32(B)(AX*1), A, Y7 \
	VADDPS Y6, Y4, Y4 \
	VADDPS Y7, Y5, Y5

// TERM8 adds A·B[lanes AX…AX+7] to Y4.
#define TERM8(B, A) \
	VMULPS (B)(AX*1), A, Y6 \
	VADDPS Y6, Y4, Y4

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

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpy4AVX2(o, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ         o+0(FP), DI
	MOVQ         b0+8(FP), R8
	MOVQ         b1+16(FP), R9
	MOVQ         b2+24(FP), R10
	MOVQ         b3+32(FP), R11
	VBROADCASTSS a0+40(FP), Y0
	VBROADCASTSS a1+44(FP), Y1
	VBROADCASTSS a2+48(FP), Y2
	VBROADCASTSS a3+52(FP), Y3
	MOVQ         n+56(FP), CX
	SHLQ         $2, CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-64, DX
	JZ           axpy4last8

axpy4loop16:
	VMOVUPS (DI)(AX*1), Y4
	VMOVUPS 32(DI)(AX*1), Y5
	TERM16(R8, Y0)
	TERM16(R9, Y1)
	TERM16(R10, Y2)
	TERM16(R11, Y3)
	VMOVUPS Y4, (DI)(AX*1)
	VMOVUPS Y5, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, DX
	JB      axpy4loop16

axpy4last8:
	CMPQ    AX, CX
	JAE     axpy4done
	VMOVUPS (DI)(AX*1), Y4
	TERM8(R8, Y0)
	TERM8(R9, Y1)
	TERM8(R10, Y2)
	TERM8(R11, Y3)
	VMOVUPS Y4, (DI)(AX*1)

axpy4done:
	VZEROUPPER
	RET

// func axpy1AVX2(o, b *float32, a float32, n int)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ         o+0(FP), DI
	MOVQ         b+8(FP), R8
	VBROADCASTSS a+16(FP), Y0
	MOVQ         n+24(FP), CX
	SHLQ         $2, CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-64, DX
	JZ           axpy1last8

axpy1loop16:
	VMOVUPS (DI)(AX*1), Y4
	VMOVUPS 32(DI)(AX*1), Y5
	TERM16(R8, Y0)
	VMOVUPS Y4, (DI)(AX*1)
	VMOVUPS Y5, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, DX
	JB      axpy1loop16

axpy1last8:
	CMPQ    AX, CX
	JAE     axpy1done
	VMOVUPS (DI)(AX*1), Y4
	TERM8(R8, Y0)
	VMOVUPS Y4, (DI)(AX*1)

axpy1done:
	VZEROUPPER
	RET

// The int8 row kernels keep the same registers and order, with AX a lane
// index instead (o's lanes at 4·AX, b's at AX), CX the row length and DX
// the part of it whole 16-lane groups cover. Each term first widens eight
// codes to int32 (VPMOVSXBD) and then to float32 (VCVTDQ2PS), both exact.

// TERM16I8 adds A·float32(B[lanes AX…AX+15]) to Y4:Y5.
#define TERM16I8(B, A) \
	VPMOVSXBD (B)(AX*1), Y6 \
	VPMOVSXBD 8(B)(AX*1), Y7 \
	VCVTDQ2PS Y6, Y6 \
	VCVTDQ2PS Y7, Y7 \
	VMULPS    Y6, A, Y6 \
	VMULPS    Y7, A, Y7 \
	VADDPS    Y6, Y4, Y4 \
	VADDPS    Y7, Y5, Y5

// TERM8I8 adds A·float32(B[lanes AX…AX+7]) to Y4.
#define TERM8I8(B, A) \
	VPMOVSXBD (B)(AX*1), Y6 \
	VCVTDQ2PS Y6, Y6 \
	VMULPS    Y6, A, Y6 \
	VADDPS    Y6, Y4, Y4

// func axpy4i8AVX2(o *float32, b0, b1, b2, b3 *int8, a0, a1, a2, a3 float32, n int)
TEXT ·axpy4i8AVX2(SB), NOSPLIT, $0-64
	MOVQ         o+0(FP), DI
	MOVQ         b0+8(FP), R8
	MOVQ         b1+16(FP), R9
	MOVQ         b2+24(FP), R10
	MOVQ         b3+32(FP), R11
	VBROADCASTSS a0+40(FP), Y0
	VBROADCASTSS a1+44(FP), Y1
	VBROADCASTSS a2+48(FP), Y2
	VBROADCASTSS a3+52(FP), Y3
	MOVQ         n+56(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JZ           axpy4i8last8

axpy4i8loop16:
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	TERM16I8(R8, Y0)
	TERM16I8(R9, Y1)
	TERM16I8(R10, Y2)
	TERM16I8(R11, Y3)
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JB      axpy4i8loop16

axpy4i8last8:
	CMPQ    AX, CX
	JAE     axpy4i8done
	VMOVUPS (DI)(AX*4), Y4
	TERM8I8(R8, Y0)
	TERM8I8(R9, Y1)
	TERM8I8(R10, Y2)
	TERM8I8(R11, Y3)
	VMOVUPS Y4, (DI)(AX*4)

axpy4i8done:
	VZEROUPPER
	RET

// func axpy1i8AVX2(o *float32, b *int8, a float32, n int)
TEXT ·axpy1i8AVX2(SB), NOSPLIT, $0-32
	MOVQ         o+0(FP), DI
	MOVQ         b+8(FP), R8
	VBROADCASTSS a+16(FP), Y0
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JZ           axpy1i8last8

axpy1i8loop16:
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	TERM16I8(R8, Y0)
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JB      axpy1i8loop16

axpy1i8last8:
	CMPQ    AX, CX
	JAE     axpy1i8done
	VMOVUPS (DI)(AX*4), Y4
	TERM8I8(R8, Y0)
	VMOVUPS Y4, (DI)(AX*4)

axpy1i8done:
	VZEROUPPER
	RET

// The four-row bodies keep a 4-row × 16-lane strip of o in Y0…Y7 (row r
// in Y(2r):Y(2r+1)) across every k, so the strip is loaded and stored
// once, and each k loads B's lanes once into Y8:Y9 for all four rows.
// Per row the coefficient is broadcast into Y10 and its two products land
// in Y11:Y12 before their adds: one VMULPS then one VADDPS per term,
// terms in k order, as in the row kernels. DI points at o's strip (row 0),
// DX at B's (row 0), SI at the coefficients' row 0; R8 and R12 are 1 and 3
// rows of o in bytes, R9 and R13 1 and 3 rows of coefficients, R10 one
// row of B, R11 the end of coefficient row 0, CX the end of the part of
// o's row 0 that whole 16-lane strips cover. AX and BX walk the
// coefficients and B along k.

// COEF16(A, L, H) adds the coefficient at A times B's lanes Y8:Y9 to L:H.
#define COEF16(A, L, H) \
	VBROADCASTSS A, Y10 \
	VMULPS       Y8, Y10, Y11 \
	VMULPS       Y9, Y10, Y12 \
	VADDPS       Y11, L, L \
	VADDPS       Y12, H, H

// COEF8(A, L) adds the coefficient at A times B's lanes Y8 to L.
#define COEF8(A, L) \
	VBROADCASTSS A, Y10 \
	VMULPS       Y8, Y10, Y11 \
	VADDPS       Y11, L, L

// BLOCK4_16 adds B's lanes Y8:Y9 times the four rows' coefficients at
// AX to the 16-lane strip, BLOCK4_8 B's lanes Y8 to the 8-lane one.
#define BLOCK4_16 \
	COEF16((AX), Y0, Y1) \
	COEF16((AX)(R9*1), Y2, Y3) \
	COEF16((AX)(R9*2), Y4, Y5) \
	COEF16((AX)(R13*1), Y6, Y7)

#define BLOCK4_8 \
	COEF8((AX), Y0) \
	COEF8((AX)(R9*1), Y2) \
	COEF8((AX)(R9*2), Y4) \
	COEF8((AX)(R13*1), Y6)

// LOADO16/STOREO16 move the 16-lane strip between o and Y0…Y7,
// LOADO8/STOREO8 the 8-lane one between o and Y0, Y2, Y4, Y6.
#define LOADO16 \
	VMOVUPS (DI), Y0 \
	VMOVUPS 32(DI), Y1 \
	VMOVUPS (DI)(R8*1), Y2 \
	VMOVUPS 32(DI)(R8*1), Y3 \
	VMOVUPS (DI)(R8*2), Y4 \
	VMOVUPS 32(DI)(R8*2), Y5 \
	VMOVUPS (DI)(R12*1), Y6 \
	VMOVUPS 32(DI)(R12*1), Y7

#define STOREO16 \
	VMOVUPS Y0, (DI) \
	VMOVUPS Y1, 32(DI) \
	VMOVUPS Y2, (DI)(R8*1) \
	VMOVUPS Y3, 32(DI)(R8*1) \
	VMOVUPS Y4, (DI)(R8*2) \
	VMOVUPS Y5, 32(DI)(R8*2) \
	VMOVUPS Y6, (DI)(R12*1) \
	VMOVUPS Y7, 32(DI)(R12*1)

#define LOADO8 \
	VMOVUPS (DI), Y0 \
	VMOVUPS (DI)(R8*1), Y2 \
	VMOVUPS (DI)(R8*2), Y4 \
	VMOVUPS (DI)(R12*1), Y6

#define STOREO8 \
	VMOVUPS Y0, (DI) \
	VMOVUPS Y2, (DI)(R8*1) \
	VMOVUPS Y4, (DI)(R8*2) \
	VMOVUPS Y6, (DI)(R12*1)

// func rows4AVX2(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k, n int)
TEXT ·rows4AVX2(SB), NOSPLIT, $0-64
	MOVQ  o+0(FP), DI
	MOVQ  ldo+8(FP), R8
	SHLQ  $2, R8
	LEAQ  (R8)(R8*2), R12
	MOVQ  a+16(FP), SI
	MOVQ  lda+24(FP), R9
	SHLQ  $2, R9
	LEAQ  (R9)(R9*2), R13
	MOVQ  b+32(FP), DX
	MOVQ  ldb+40(FP), R10
	SHLQ  $2, R10
	MOVQ  k+48(FP), R11
	LEAQ  (SI)(R11*4), R11
	MOVQ  n+56(FP), CX
	ANDQ $-16, CX
	JZ   rows4last8
	LEAQ (DI)(CX*4), CX

rows4strip16:
	LOADO16
	MOVQ SI, AX
	MOVQ DX, BX

rows4k16:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	BLOCK4_16
	ADDQ    $4, AX
	ADDQ    R10, BX
	CMPQ    AX, R11
	JB      rows4k16
	STOREO16
	ADDQ    $64, DI
	ADDQ    $64, DX
	CMPQ    DI, CX
	JB      rows4strip16

rows4last8:
	MOVQ n+56(FP), CX
	ANDQ $8, CX
	JZ   rows4done
	LOADO8
	MOVQ SI, AX
	MOVQ DX, BX

rows4k8:
	VMOVUPS (BX), Y8
	BLOCK4_8
	ADDQ    $4, AX
	ADDQ    R10, BX
	CMPQ    AX, R11
	JB      rows4k8
	STOREO8

rows4done:
	VZEROUPPER
	RET

// The 512-bit body keeps a 4-row × 32-lane strip of o in Z0…Z7 (row r in
// Z(2r):Z(2r+1)), B's lanes in Z8:Z9, the broadcast coefficient in Z10
// and its products in Z11:Z12 — the AVX2 body's registers at twice the
// width, the same instructions in the same operand order. The registers
// that walk the operands are the AVX2 body's, CX now the end of the part
// of o's row 0 that whole 32-lane strips cover.

// COEF32(A, L, H) adds the coefficient at A times B's lanes Z8:Z9 to L:H,
// ZCOEF16(A, L) the coefficient at A times B's lanes Z8 to L.
#define COEF32(A, L, H) \
	VBROADCASTSS A, Z10 \
	VMULPS       Z8, Z10, Z11 \
	VMULPS       Z9, Z10, Z12 \
	VADDPS       Z11, L, L \
	VADDPS       Z12, H, H

#define ZCOEF16(A, L) \
	VBROADCASTSS A, Z10 \
	VMULPS       Z8, Z10, Z11 \
	VADDPS       Z11, L, L

#define BLOCK4_32 \
	COEF32((AX), Z0, Z1) \
	COEF32((AX)(R9*1), Z2, Z3) \
	COEF32((AX)(R9*2), Z4, Z5) \
	COEF32((AX)(R13*1), Z6, Z7)

#define ZBLOCK4_16 \
	ZCOEF16((AX), Z0) \
	ZCOEF16((AX)(R9*1), Z2) \
	ZCOEF16((AX)(R9*2), Z4) \
	ZCOEF16((AX)(R13*1), Z6)

#define LOADO32 \
	VMOVUPS (DI), Z0 \
	VMOVUPS 64(DI), Z1 \
	VMOVUPS (DI)(R8*1), Z2 \
	VMOVUPS 64(DI)(R8*1), Z3 \
	VMOVUPS (DI)(R8*2), Z4 \
	VMOVUPS 64(DI)(R8*2), Z5 \
	VMOVUPS (DI)(R12*1), Z6 \
	VMOVUPS 64(DI)(R12*1), Z7

#define STOREO32 \
	VMOVUPS Z0, (DI) \
	VMOVUPS Z1, 64(DI) \
	VMOVUPS Z2, (DI)(R8*1) \
	VMOVUPS Z3, 64(DI)(R8*1) \
	VMOVUPS Z4, (DI)(R8*2) \
	VMOVUPS Z5, 64(DI)(R8*2) \
	VMOVUPS Z6, (DI)(R12*1) \
	VMOVUPS Z7, 64(DI)(R12*1)

#define ZLOADO16 \
	VMOVUPS (DI), Z0 \
	VMOVUPS (DI)(R8*1), Z2 \
	VMOVUPS (DI)(R8*2), Z4 \
	VMOVUPS (DI)(R12*1), Z6

#define ZSTOREO16 \
	VMOVUPS Z0, (DI) \
	VMOVUPS Z2, (DI)(R8*1) \
	VMOVUPS Z4, (DI)(R8*2) \
	VMOVUPS Z6, (DI)(R12*1)

// func rows4AVX512(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k, n int)
TEXT ·rows4AVX512(SB), NOSPLIT, $0-64
	MOVQ  o+0(FP), DI
	MOVQ  ldo+8(FP), R8
	SHLQ  $2, R8
	LEAQ  (R8)(R8*2), R12
	MOVQ  a+16(FP), SI
	MOVQ  lda+24(FP), R9
	SHLQ  $2, R9
	LEAQ  (R9)(R9*2), R13
	MOVQ  b+32(FP), DX
	MOVQ  ldb+40(FP), R10
	SHLQ  $2, R10
	MOVQ  k+48(FP), R11
	LEAQ  (SI)(R11*4), R11
	MOVQ  n+56(FP), CX
	ANDQ $-32, CX
	JZ   wide4last16
	LEAQ (DI)(CX*4), CX

wide4strip32:
	LOADO32
	MOVQ SI, AX
	MOVQ DX, BX

wide4k32:
	VMOVUPS (BX), Z8
	VMOVUPS 64(BX), Z9
	BLOCK4_32
	ADDQ    $4, AX
	ADDQ    R10, BX
	CMPQ    AX, R11
	JB      wide4k32
	STOREO32
	ADDQ    $128, DI
	ADDQ    $128, DX
	CMPQ    DI, CX
	JB      wide4strip32

wide4last16:
	MOVQ n+56(FP), CX
	ANDQ $16, CX
	JZ   wide4last8
	ZLOADO16
	MOVQ SI, AX
	MOVQ DX, BX

wide4k16:
	VMOVUPS (BX), Z8
	ZBLOCK4_16
	ADDQ    $4, AX
	ADDQ    R10, BX
	CMPQ    AX, R11
	JB      wide4k16
	ZSTOREO16
	ADDQ    $64, DI
	ADDQ    $64, DX

wide4last8:
	MOVQ n+56(FP), CX
	ANDQ $8, CX
	JZ   wide4done
	LOADO8
	MOVQ SI, AX
	MOVQ DX, BX

wide4k8:
	VMOVUPS (BX), Y8
	BLOCK4_8
	ADDQ    $4, AX
	ADDQ    R10, BX
	CMPQ    AX, R11
	JB      wide4k8
	STOREO8

wide4done:
	VZEROUPPER
	RET

// func rows4i8AVX2(o *float32, ldo int, a *float32, lda int, b *int8, ldb, k, n int)
TEXT ·rows4i8AVX2(SB), NOSPLIT, $0-64
	MOVQ  o+0(FP), DI
	MOVQ  ldo+8(FP), R8
	SHLQ  $2, R8
	LEAQ  (R8)(R8*2), R12
	MOVQ  a+16(FP), SI
	MOVQ  lda+24(FP), R9
	SHLQ  $2, R9
	LEAQ  (R9)(R9*2), R13
	MOVQ  b+32(FP), DX
	MOVQ  ldb+40(FP), R10
	MOVQ  k+48(FP), R11
	LEAQ  (SI)(R11*4), R11
	MOVQ  n+56(FP), CX
	ANDQ $-16, CX
	JZ   rows4i8last8
	LEAQ (DI)(CX*4), CX

rows4i8strip16:
	LOADO16
	MOVQ SI, AX
	MOVQ DX, BX

rows4i8k16:
	VPMOVSXBD (BX), Y8
	VPMOVSXBD 8(BX), Y9
	VCVTDQ2PS Y8, Y8
	VCVTDQ2PS Y9, Y9
	BLOCK4_16
	ADDQ      $4, AX
	ADDQ      R10, BX
	CMPQ      AX, R11
	JB        rows4i8k16
	STOREO16
	ADDQ      $64, DI
	ADDQ      $16, DX
	CMPQ      DI, CX
	JB        rows4i8strip16

rows4i8last8:
	MOVQ n+56(FP), CX
	ANDQ $8, CX
	JZ   rows4i8done
	LOADO8
	MOVQ SI, AX
	MOVQ DX, BX

rows4i8k8:
	VPMOVSXBD (BX), Y8
	VCVTDQ2PS Y8, Y8
	BLOCK4_8
	ADDQ      $4, AX
	ADDQ      R10, BX
	CMPQ      AX, R11
	JB        rows4i8k8
	STOREO8

rows4i8done:
	VZEROUPPER
	RET

// The tail kernels walk eight lanes at a time with AX the byte offset
// into every row and CX the row length in bytes; o is DI, p SI and b BX.
// Each lane's arithmetic is the scalar expression's (tail.go).

// func addBiasAVX2(o, p, b *float32, n int)
TEXT ·addBiasAVX2(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

biasloop:
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (BX)(AX*1), Y0, Y0 // p + b
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      biasloop
	VZEROUPPER
	RET

// func addBiasReLUAVX2(o, p, b *float32, n int)
TEXT ·addBiasReLUAVX2(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	XORQ AX, AX
	VXORPS Y15, Y15, Y15

reluloop:
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (BX)(AX*1), Y0, Y0
	VMAXPS  Y0, Y15, Y0        // zero > v ? zero : v
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      reluloop
	VZEROUPPER
	RET

// func addBiasResidualAVX2(o, p, b *float32, n int)
TEXT ·addBiasResidualAVX2(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

residualloop:
	VMOVUPS (SI)(AX*1), Y1
	VADDPS  (BX)(AX*1), Y1, Y1 // p + b
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  Y1, Y0, Y0         // o + (p + b)
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      residualloop
	VZEROUPPER
	RET

// roundconst holds roundBF16AVX2's four lane constants: the kept half's
// low bit, the rounding bias, the quiet bit and the kept-half mask. They
// are broadcast from memory: moving them in through a general register
// takes a legacy-SSE MOVQ, and that one instruction among VEX ones made
// the kernel three times slower on a 1,024-lane slice.
DATA roundconst<>+0(SB)/4, $1
DATA roundconst<>+4(SB)/4, $0x7fff
DATA roundconst<>+8(SB)/4, $0x00400000
DATA roundconst<>+12(SB)/4, $0xffff0000
GLOBL roundconst<>(SB), RODATA|NOPTR, $16

// func roundBF16AVX2(x *float32, n int)
TEXT ·roundBF16AVX2(SB), NOSPLIT, $0-16
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	SHLQ         $2, CX
	XORQ         AX, AX
	VPBROADCASTD roundconst<>+0(SB), Y12
	VPBROADCASTD roundconst<>+4(SB), Y13
	VPBROADCASTD roundconst<>+8(SB), Y14
	VPBROADCASTD roundconst<>+12(SB), Y15

roundloop:
	VMOVUPS   (DI)(AX*1), Y0
	VPSRLD    $16, Y0, Y1
	VPAND     Y12, Y1, Y1      // the kept half's low bit
	VPADDD    Y13, Y1, Y1
	VPADDD    Y0, Y1, Y1       // bits + 0x7fff + low bit
	VPOR      Y14, Y0, Y2      // NaN: quietened instead
	VCMPPS    $3, Y0, Y0, Y3   // unordered: the NaN lanes
	VBLENDVPS Y3, Y2, Y1, Y1
	VPAND     Y15, Y1, Y1
	VMOVUPS   Y1, (DI)(AX*1)
	ADDQ      $32, AX
	CMPQ      AX, CX
	JB        roundloop
	VZEROUPPER
	RET

// func packBF16AVX2(dst *byte, src *float32, n int)
//
// roundBF16AVX2's lane rule, then the kept half shifted down and packed
// to 16-bit lanes: VPACKUSDW saturates nothing, as every lane is below
// 0x10000 after the shift.
TEXT ·packBF16AVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	VPBROADCASTD roundconst<>+0(SB), Y12
	VPBROADCASTD roundconst<>+4(SB), Y13
	VPBROADCASTD roundconst<>+8(SB), Y14

packloop:
	VMOVUPS      (SI)(AX*4), Y0
	VPSRLD       $16, Y0, Y1
	VPAND        Y12, Y1, Y1
	VPADDD       Y13, Y1, Y1
	VPADDD       Y0, Y1, Y1
	VPOR         Y14, Y0, Y2
	VCMPPS       $3, Y0, Y0, Y3
	VBLENDVPS    Y3, Y2, Y1, Y1
	VPSRLD       $16, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPACKUSDW    X2, X1, X1
	VMOVDQU      X1, (DI)(AX*2)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JB           packloop
	VZEROUPPER
	RET

// extremes holds minMaxAVX2's starting lanes, +Inf and −Inf.
DATA extremes<>+0(SB)/4, $0x7f800000
DATA extremes<>+4(SB)/4, $0xff800000
GLOBL extremes<>(SB), RODATA|NOPTR, $8

// func minMaxAVX2(x *float32, n int) (lo, hi float32)
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	SHLQ         $2, CX
	XORQ         AX, AX
	VBROADCASTSS extremes<>+0(SB), Y0
	VBROADCASTSS extremes<>+4(SB), Y1

minmaxloop:
	VMOVUPS (DI)(AX*1), Y2
	VMINPS  Y0, Y2, Y0     // v < lo ? v : lo
	VMAXPS  Y1, Y2, Y1     // v > hi ? v : hi
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      minmaxloop

	// The lanes hold no NaN, so they may meet in any order.
	VEXTRACTF128 $1, Y0, X2
	VMINPS       X2, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VMAXPS       X3, X1, X1
	VPERMILPS    $0x4e, X0, X2
	VMINPS       X2, X0, X0
	VPERMILPS    $0x4e, X1, X3
	VMAXPS       X3, X1, X1
	VPERMILPS    $0xb1, X0, X2
	VMINPS       X2, X0, X0
	VPERMILPS    $0xb1, X1, X3
	VMAXPS       X3, X1, X1
	VMOVSS       X0, lo+16(FP)
	VMOVSS       X1, hi+20(FP)
	VZEROUPPER
	RET

// func quantizeU8AVX2(q *uint8, x *float32, scale float32, zero int32, n int)
TEXT ·quantizeU8AVX2(SB), NOSPLIT, $0-32
	MOVQ         q+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	VBROADCASTSS scale+16(FP), Y13
	MOVL         zero+20(FP), R8
	VMOVD        R8, X14
	VPBROADCASTD X14, Y14
	VPXOR        Y12, Y12, Y12
	VPCMPEQD     Y15, Y15, Y15
	VPSRLD       $24, Y15, Y15   // 255

quantloop:
	VMOVUPS      (SI)(AX*4), Y0
	VDIVPS       Y13, Y0, Y0     // v / scale
	VCVTPS2DQ    Y0, Y0          // nearest even; NaN, ±Inf, past int32: 0x80000000
	VPADDD       Y14, Y0, Y0     // + zero
	VPMAXSD      Y12, Y0, Y0
	VPMINSD      Y15, Y0, Y0     // [0, 255]
	VEXTRACTI128 $1, Y0, X1
	VPACKUSDW    X1, X0, X0
	VPACKUSWB    X0, X0, X0
	VMOVQ        X0, (DI)(AX*1)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JB           quantloop
	VZEROUPPER
	RET

// func dequantAVX2(o *float32, acc *int32, f *float32, sums *int32, z int32, n int)
TEXT ·dequantAVX2(SB), NOSPLIT, $0-48
	MOVQ         o+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         f+16(FP), BX
	MOVQ         sums+24(FP), DX
	MOVQ         n+40(FP), CX
	SHLQ         $2, CX
	XORQ         AX, AX
	MOVL         z+32(FP), R8
	VMOVD        R8, X15
	VPBROADCASTD X15, Y15

dequantloop:
	VPMULLD   (DX)(AX*1), Y15, Y1 // z·sums
	VMOVDQU   (SI)(AX*1), Y0
	VPSUBD    Y1, Y0, Y0          // acc − z·sums
	VCVTDQ2PS Y0, Y0
	VMOVUPS   (BX)(AX*1), Y2
	VMULPS    Y0, Y2, Y0          // f · float32(…)
	VMOVUPS   Y0, (DI)(AX*1)
	ADDQ      $32, AX
	CMPQ      AX, CX
	JB        dequantloop
	VZEROUPPER
	RET
