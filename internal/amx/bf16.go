package amx

import (
	"math"

	"github.com/lia-sim/lia/internal/tensor"
)

// BF16 is a bfloat16 value: the top 16 bits of an IEEE-754 float32.
type BF16 uint16

// BF16FromFloat32 converts f to bfloat16 with round-to-nearest-even, the
// rounding AMX and modern GPUs implement.
func BF16FromFloat32(f float32) BF16 {
	bits := math.Float32bits(f)
	// NaN must stay NaN: force a quiet NaN payload bit so truncation
	// cannot turn it into an infinity.
	if f != f {
		return BF16(bits>>16 | 0x0040)
	}
	// Round to nearest even on the truncated 16 bits.
	rounding := uint32(0x7fff) + (bits>>16)&1
	return BF16((bits + rounding) >> 16)
}

// Float32 converts back to float32 (exact: bfloat16 values are a subset of
// float32).
func (b BF16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// RoundFloat32 applies one float32→bfloat16→float32 round trip, the
// precision loss a BF16 store incurs.
func RoundFloat32(f float32) float32 {
	return BF16FromFloat32(f).Float32()
}

// RoundSlice rounds every element of xs through bfloat16 in place and
// returns xs: RoundFloat32 per element, in one vector pass where the host
// has AVX2 (tensor.RoundBF16).
func RoundSlice(xs []float32) []float32 {
	tensor.RoundBF16(xs)
	return xs
}

// TDPBF16PS numerics. Each instruction computes, per output lane, two
// float32 chains from +0 — E over the even bf16 lanes of the k-pairs, O
// over the odd — and then C = C + (E + O). This is the accumulation order
// the host tile unit uses (EXPERIMENTS.md, "BF16 numerics on silicon"),
// down to the rules a plain float32 loop does not follow:
//
//   - a subnormal input reads as zero (DAZ);
//   - each lane update rounds once: acc + a·b with the product exact and
//     its exponent unbounded, rounded to 24 bits like an FMA;
//   - a result below 2^-126 after that rounding becomes a zero of its
//     sign (FTZ);
//   - a NaN operand wins in the order a, b, acc within a lane update and
//     left before right in the two sums, quietened; an invalid operation
//     (∞·0, ∞−∞) yields the default NaN 0xFFC00000.
//
// bf16Dot is the scalar statement of those rules; every BF16 kernel the
// emulator runs is it or is proved equal to it (bf16Fast).

// defaultNaN is the NaN an invalid operation produces on the tile unit.
const defaultNaN = 0xFFC00000

// daz reads a subnormal float32 as +0.
func daz(x float32) float32 {
	if x != 0 && f32Bits(x)&0x7F800000 == 0 {
		return 0
	}
	return x
}

// quiet sets a NaN's quiet bit.
func quiet(x float32) float32 { return f32FromBits(f32Bits(x) | 0x00400000) }

// roundFTZ rounds an exact-enough float64 to float32 the way the tile
// unit does: 24 bits with an unbounded exponent, then a zero of r's sign
// if the rounded magnitude is below 2^-126. r is a float32 plus one bf16
// product (or a float32 sum), correctly rounded to 53 bits, which is
// close enough that rounding it again to 24 bits is the correctly
// rounded result.
func roundFTZ(r float64) float32 {
	if r != r {
		return f32FromBits(defaultNaN)
	}
	if math.Abs(r) >= 0x1p-126 {
		return float32(r)
	}
	// Scaled into the normal range the conversion rounds to 24 bits; only
	// a value that rounds up to ±2^-126 is not flushed.
	if s := float32(r * 0x1p64); math.Abs(float64(s)) >= 0x1p-62 {
		return s * 0x1p-64
	}
	return float32(math.Copysign(0, r))
}

// bf16FMA is one lane update of a chain: acc + a·b.
func bf16FMA(acc, a, b float32) float32 {
	a, b = daz(a), daz(b)
	switch {
	case a != a:
		return quiet(a)
	case b != b:
		return quiet(b)
	case acc != acc:
		return quiet(acc)
	}
	return roundFTZ(float64(acc) + float64(a)*float64(b))
}

// bf16Add is the instruction's two sums, E + O and C + (E + O).
func bf16Add(x, y float32) float32 {
	x, y = daz(x), daz(y)
	switch {
	case x != x:
		return quiet(x)
	case y != y:
		return quiet(y)
	}
	return roundFTZ(float64(x) + float64(y))
}

// bf16Dot is one output lane of one TDPBF16PS: c + (E + O) over the
// instruction's lanes a and b (an even count, pair p at 2p and 2p+1).
func bf16Dot(c float32, a, b []float32) float32 {
	var e, o float32
	for k := 0; k+1 < len(a) && k+1 < len(b); k += 2 {
		e = bf16FMA(e, a[k], b[k])
		o = bf16FMA(o, a[k+1], b[k+1])
	}
	return bf16Add(c, bf16Add(e, o))
}

// bf16Span is the exponent span of an operand's bf16 lanes, from which
// bf16Fast decides whether plain float32 arithmetic computes bf16Dot
// exactly. It folds each lane's magnitude bits without a branch, since
// the per-call packers fold every lane they write. The zero value is not
// empty; start from emptySpan.
type bf16Span struct {
	hi   uint32 // greatest magnitude bits of any lane
	loM1 uint32 // least magnitude bits minus one: a zero lane wraps and never wins
}

// emptySpan is the span of an operand with no lane.
var emptySpan = bf16Span{loM1: math.MaxUint32}

// with is s widened by the lane v. It takes and returns s by value so a
// packer's running span stays in registers.
func (s bf16Span) with(v float32) bf16Span {
	b := f32Bits(v) & 0x7FFFFFFF
	return bf16Span{hi: max(s.hi, b), loM1: min(s.loM1, b-1)}
}

// spanOf is the span of every value in vs.
func spanOf(vs []float32) bf16Span {
	s := emptySpan
	for _, v := range vs {
		s = s.with(v)
	}
	return s
}

// special reports whether some lane is infinite, NaN or subnormal.
func (s bf16Span) special() bool {
	return s.hi >= 0x7F800000 || s.loM1 < 0x007FFFFF
}

// bf16Fast reports whether a product of operands with spans a and b,
// accumulated from +0 (or from values that are multiples of 2^-126), is
// computed exactly by plain float32 arithmetic in the two-chain order. It
// is when no lane is special and every product is ±0, or when, with
// bf16's 8-bit significands, every product is a multiple of 2^-126
// (2·(-127-7) + the least biased exponents ≥ -126: every partial sum is
// then zero or normal, so FTZ never fires and nothing rounds below
// 2^-126) and below 2^128 (products are exact and finite, so the
// unbounded-exponent product is the float32 one).
func bf16Fast(a, b bf16Span) bool {
	switch {
	case a.special() || b.special():
		return false
	case a.hi == 0 || b.hi == 0:
		return true
	}
	lo := int((a.loM1+1)>>23) + int((b.loM1+1)>>23)
	return lo >= 2*(127+7)-126 && int(a.hi>>23)+int(b.hi>>23) <= 2*126+128
}
