//go:build !purego

package tensor

// useAVX2 reports whether the row kernels and the elementwise tails may
// run their assembly bodies: the CPU has AVX (CPUID.1:ECX bit 28) and AVX2 (CPUID.(7,0):EBX
// bit 5), and the OS saves YMM state across context switches —
// CPUID.1:ECX OSXSAVE (bit 27), checked before XGETBV may execute, and
// XCR0 bits 1 (SSE) and 2 (AVX) set. Production code never reassigns it;
// tests turn it off to run the Go loop on every lane.
var useAVX2 = probeAVX2()

func probeAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// useAVX512 reports whether rows4 may run its 512-bit body: useAVX2
// holds, the CPU has AVX512F (CPUID.(7,0):EBX bit 16), and the OS saves
// the opmask and ZMM state — XCR0 bits 5, 6 and 7. Like useAVX2 it is
// chosen once here; tests turn it off to run the AVX2 body.
var useAVX512 = useAVX2 && probeAVX512()

func probeAVX512() bool {
	const zmmState = 1<<5 | 1<<6 | 1<<7
	if xcr0()&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// cpuid executes CPUID with EAX = eaxArg, ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xcr0 returns the low half of XCR0 (XGETBV with ECX = 0). Valid only
// where CPUID.1:ECX OSXSAVE is set.
func xcr0() uint32

// axpy4AVX2 is axpy4 over lanes [0, n), n a positive multiple of 8, with
// o and b0…b3 pointing at the first lane of slices at least n long. It
// checks nothing and runs VZEROUPPER before returning.
//
//go:noescape
func axpy4AVX2(o, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int)

// axpy1AVX2 is axpy1 over lanes [0, n) under axpy4AVX2's contract.
//
//go:noescape
func axpy1AVX2(o, b *float32, a float32, n int)

// axpy4i8AVX2 is axpy4AVX2 over int8 rows, each group of eight lanes
// widened exactly to float32 (VPMOVSXBD, VCVTDQ2PS) before its VMULPS.
//
//go:noescape
func axpy4i8AVX2(o *float32, b0, b1, b2, b3 *int8, a0, a1, a2, a3 float32, n int)

// axpy1i8AVX2 is axpy1AVX2 over an int8 row, widened the same way.
//
//go:noescape
func axpy1i8AVX2(o *float32, b *int8, a float32, n int)

// rows4AVX2 is rows4 over lanes [0, n), n a positive multiple of 8: it
// adds, to the four output rows at o (ldo values apart), the terms
// a[r][kk]·B[kk][j] of the 4×k coefficients at a (rows lda apart) in kk
// order, B's row kk starting ldb values after row kk−1; k ≥ 1. It checks
// nothing and runs VZEROUPPER before returning.
//
//go:noescape
func rows4AVX2(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k, n int)

// rows4AVX512 is rows4AVX2 in 512-bit registers: 32-lane strips, then a
// 16- and an 8-lane remainder, each lane's terms the same instructions in
// the same operand order, so its bits are rows4AVX2's. It runs
// VZEROUPPER before returning.
//
//go:noescape
func rows4AVX512(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k, n int)

// rows4i8AVX2 is rows4AVX2 over an int8 B, each eight codes widened once
// (VPMOVSXBD, VCVTDQ2PS) for all four rows; ldb counts codes.
//
//go:noescape
func rows4i8AVX2(o *float32, ldo int, a *float32, lda int, b *int8, ldb, k, n int)

// addBiasAVX2 (o = p + b), addBiasReLUAVX2 (o = max(0, p + b)),
// addBiasResidualAVX2 (o = o + (p + b)) and roundBF16AVX2 are the tails
// of tail.go over lanes [0, n), n a positive multiple of 8, each operand
// pointing at the first lane of a slice at least n long (o may be p).
// They check nothing and run VZEROUPPER before returning.
//
//go:noescape
func addBiasAVX2(o, p, b *float32, n int)

//go:noescape
func addBiasReLUAVX2(o, p, b *float32, n int)

//go:noescape
func addBiasResidualAVX2(o, p, b *float32, n int)

//go:noescape
func roundBF16AVX2(x *float32, n int)

// packBF16AVX2 is PackBF16 over lanes [0, n), n a positive multiple of
// 8: the bfloat16 of src[i] into dst[2i:2i+2]. It checks nothing and
// runs VZEROUPPER before returning.
//
//go:noescape
func packBF16AVX2(dst *byte, src *float32, n int)

// minMaxAVX2 is MinMax over lanes [0, n), quantizeU8AVX2 QuantizeU8 and
// dequantAVX2 DequantizeRow, n a positive multiple of 8, each pointer at
// the first lane of a slice at least n long. They check nothing and run
// VZEROUPPER before returning.
//
//go:noescape
func minMaxAVX2(x *float32, n int) (lo, hi float32)

//go:noescape
func quantizeU8AVX2(q *uint8, x *float32, scale float32, zero int32, n int)

//go:noescape
func dequantAVX2(o *float32, acc *int32, f *float32, sums *int32, z int32, n int)
