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
