package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A sublayer's elementwise tail — its bias, then ReLU or the residual —
// and the BF16 rounding of an operand are one pass over each row: on
// amd64 hosts with AVX2 the first n &^ 7 lanes run in assembly
// (axpy_amd64.s) and the Go loop does the rest, and all of it elsewhere.
// Each lane's result is the scalar expression's bit for bit:
//
//   - bias: one VADDPS, o + b;
//   - bias + ReLU: then VMAXPS with zero as its first source, which
//     returns the second — the lane — unless zero is greater, so NaN
//     and −0 pass through exactly as `if v < 0 { v = 0 }` leaves them;
//   - bias + residual: two VADDPS, x + (p + b) in that order;
//   - BF16 rounding: integer round-to-nearest-even on the bits,
//     bits + 0x7fff + (bits>>16 & 1) with the low half then cleared, and
//     a NaN lane (VCMPPS unordered) blended to its own bits with the quiet
//     bit set instead — amx.BF16FromFloat32's two cases. PackBF16 then
//     shifts the kept half down (VPSRLD $16) and packs it to 16-bit
//     lanes (VPACKUSDW).

// AddBias adds the row vector bias to every row of m in place and returns m.
func AddBias(m Matrix, bias []float32) Matrix {
	return tail(m, m, bias, addBiasAVX2, func(_, p, b float32) float32 { return p + b })
}

// AddBiasReLU adds bias to every row of m and applies max(0, x), in place,
// and returns m: OPT's FC1 tail.
func AddBiasReLU(m Matrix, bias []float32) Matrix {
	return tail(m, m, bias, addBiasReLUAVX2, func(_, p, b float32) float32 {
		v := p + b
		if v < 0 {
			v = 0
		}
		return v
	})
}

// AddBiasResidual adds p plus the row vector bias to x in place,
// x + (p + bias) per element, and returns x: a sublayer's biased output
// joining the residual stream.
func AddBiasResidual(x, p Matrix, bias []float32) Matrix {
	return tail(x, p, bias, addBiasResidualAVX2, func(x, p, b float32) float32 { return x + (p + b) })
}

// tail sets every element of x to lane(x, p, bias) of its lane, p a
// matrix of x's shape and bias one row: asm on each row's first
// vectorLanes lanes, lane on the rest.
func tail(x, p Matrix, bias []float32, asm func(o, p, b *float32, n int), lane func(x, p, b float32) float32) Matrix {
	if len(bias) != x.Cols || p.Rows != x.Rows || p.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: elementwise tail of %dx%d and %dx%d with bias %d", x.Rows, x.Cols, p.Rows, p.Cols, len(bias)))
	}
	for r := 0; r < x.Rows; r++ {
		o, pr := x.Row(r), p.Row(r)
		j := vectorLanes(len(o))
		if j > 0 {
			asm(&o[0], &pr[0], &bias[0], j)
		}
		for ; j < len(o); j++ {
			o[j] = lane(o[j], pr[j], bias[j])
		}
	}
	return x
}

// RoundBF16 rounds every element of xs through bfloat16 in place —
// round-to-nearest-even, NaN kept NaN — the rounding a BF16 store or a
// tensor core applies (amx.RoundSlice).
func RoundBF16(xs []float32) {
	j := vectorLanes(len(xs))
	if j > 0 {
		roundBF16AVX2(&xs[0], j)
	}
	for ; j < len(xs); j++ {
		xs[j] = math.Float32frombits(uint32(bf16Of(xs[j])) << 16)
	}
}

// PackBF16 writes the bfloat16 of every element of src into dst as
// little-endian 16-bit lanes, src[i] at dst[2i:2i+2]: the kept half of
// RoundBF16's result, lane for lane (amx's tile image of a BF16 operand
// row). dst must hold at least 2·len(src) bytes.
func PackBF16(dst []byte, src []float32) {
	dst = dst[:2*len(src)]
	j := vectorLanes(len(src))
	if j > 0 {
		packBF16AVX2(&dst[0], &src[0], j)
	}
	for ; j < len(src); j++ {
		binary.LittleEndian.PutUint16(dst[2*j:], bf16Of(src[j]))
	}
}

// bf16Of is the bfloat16 of x: round to nearest even on the bits, or x's
// own bits with the quiet bit set for a NaN.
func bf16Of(x float32) uint16 {
	b := math.Float32bits(x)
	if x != x {
		b |= 0x00400000
	} else {
		b += 0x7fff + b>>16&1
	}
	return uint16(b >> 16)
}

// vectorLanes is how many leading lanes of an n-lane row the assembly
// takes: n &^ 7 with AVX2, none without.
func vectorLanes(n int) int {
	if useAVX2 {
		return n &^ 7
	}
	return 0
}

// An INT8 product's two elementwise ends — the activation codes going in
// and the dequantized rows coming out (quant.Linear) — are one pass each
// under the same split, and each lane's result is the scalar loop's bit
// for bit:
//
//   - MinMax: VMINPS and VMAXPS with the running extreme as the second
//     source, which they return unless the lane is strictly beyond it —
//     so a NaN lane is skipped exactly as `if v < lo` skips it;
//   - QuantizeU8: VDIVPS, then VCVTPS2DQ under the default
//     round-to-nearest-even, which is RoundToEven of the quotient and, for
//     NaN, ±Inf and quotients past int32, 0x80000000 — what
//     int32(float64) gives them on amd64 (CVTTSD2SL) — then VPADDD the
//     zero point (wrapping, as Go's int32 add does) and VPMAXSD/VPMINSD
//     to [0, 255];
//   - DequantizeRow: VPMULLD and VPSUBD (both wrapping like Go's int32),
//     VCVTDQ2PS (round-to-nearest-even, like float32(int32)), VMULPS.

// MinMax returns the least and greatest of xs as the loop
// `if v < lo { lo = v }; if v > hi { hi = v }` from lo = +Inf, hi = −Inf
// finds them: NaNs are skipped, and an empty or all-NaN xs returns
// (+Inf, −Inf). A zero extreme may come back as either zero, since the
// vector lanes meet in another order than the loop's; it compares equal.
func MinMax(xs []float32) (lo, hi float32) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	j := vectorLanes(len(xs))
	if j > 0 {
		lo, hi = minMaxAVX2(&xs[0], j)
	}
	for _, v := range xs[j:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// QuantizeU8 writes the uint8 code of every element of xs into q:
// int32(math.RoundToEven(float64(v/scale))) + zero, clamped to [0, 255].
func QuantizeU8(q []uint8, xs []float32, scale float32, zero int32) {
	if len(q) != len(xs) {
		panic(fmt.Sprintf("tensor: %d codes for %d values", len(q), len(xs)))
	}
	j := vectorLanes(len(xs))
	if j > 0 {
		quantizeU8AVX2(&q[0], &xs[0], scale, zero, j)
	}
	for ; j < len(xs); j++ {
		c := int32(math.RoundToEven(float64(xs[j]/scale))) + zero
		if c < 0 {
			c = 0
		}
		if c > 255 {
			c = 255
		}
		q[j] = uint8(c)
	}
}

// DequantizeRow sets o[j] = f[j] · float32(acc[j] − z·sums[j]) for every
// lane: an integer product row's zero-point correction and scale.
func DequantizeRow(o []float32, acc []int32, f []float32, sums []int32, z int32) {
	if len(acc) != len(o) || len(f) != len(o) || len(sums) != len(o) {
		panic(fmt.Sprintf("tensor: dequantize %d lanes from %d, %d and %d", len(o), len(acc), len(f), len(sums)))
	}
	j := vectorLanes(len(o))
	if j > 0 {
		dequantAVX2(&o[0], &acc[0], &f[0], &sums[0], z, j)
	}
	for ; j < len(o); j++ {
		o[j] = f[j] * float32(acc[j]-z*sums[j])
	}
}
