package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tailSpecials are the lane values the tail differentials combine: NaN,
// both zeros and both infinities, plus ordinary values of either sign.
var tailSpecials = []float32{specials[4], specials[0], specials[1], specials[2], specials[3], 1, -1, 0.25, -3e38, 3e38}

// TestTailMatchesScalar pins AddBias, AddBiasReLU and AddBiasResidual to
// the two-pass scalar forms they fused — bias first, then ReLU's
// `if v < 0 { v = 0 }` or the residual's x + (p + b) — at every row
// length 1…70, every combination of tailSpecials landing in every lane
// position, with the assembly on and off.
func TestTailMatchesScalar(t *testing.T) {
	kernels(t, func(t *testing.T) {
		s := len(tailSpecials)
		for n := 1; n <= 70; n++ {
			for off := 0; off < s*s*s; off += n {
				x, p, b := make([]float32, n), make([]float32, n), make([]float32, n)
				for j := range x {
					c := off + j
					x[j], p[j], b[j] = tailSpecials[c%s], tailSpecials[c/s%s], tailSpecials[c/(s*s)%s]
				}
				what := fmt.Sprintf("n=%d off=%d", n, off)

				wantBias, wantReLU, wantRes := make([]float32, n), make([]float32, n), make([]float32, n)
				for j := range x {
					wantBias[j] = p[j] + b[j]
					if wantReLU[j] = wantBias[j]; wantReLU[j] < 0 {
						wantReLU[j] = 0
					}
					wantRes[j] = x[j] + wantBias[j]
				}
				got := append([]float32(nil), p...)
				AddBias(FromSlice(1, n, got), b)
				sameFloats(t, "AddBias "+what, got, wantBias)
				got = append(got[:0], p...)
				AddBiasReLU(FromSlice(1, n, got), b)
				sameFloats(t, "AddBiasReLU "+what, got, wantReLU)
				got = append(got[:0], x...)
				AddBiasResidual(FromSlice(1, n, got), FromSlice(1, n, p), b)
				sameFloats(t, "AddBiasResidual "+what, got, wantRes)
			}
		}
	})
}

// TestTailRejectsBadShapes requires the tails to refuse a bias or a
// residual operand that does not match the rows before touching a lane.
func TestTailRejectsBadShapes(t *testing.T) {
	for name, fn := range map[string]func(){
		"bias":     func() { AddBias(New(2, 8), make([]float32, 7)) },
		"relu":     func() { AddBiasReLU(New(2, 8), make([]float32, 9)) },
		"residual": func() { AddBiasResidual(New(2, 8), New(1, 8), make([]float32, 8)) },
		"swiglu":   func() { SwiGLU(New(2, 4), New(2, 9)) },
		"norm":     func() { LayerNorm(New(2, 4), New(2, 5), make([]float32, 5), make([]float32, 5), 1e-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad shape accepted", name)
				}
			}()
			fn()
		}()
	}
}

// TestSwiGLUMatchesSiLUMulElem pins SwiGLU to SiLU of the gate half times
// the up half, element for element.
func TestSwiGLUMatchesSiLUMulElem(t *testing.T) {
	h := FromSlice(2, 6, []float32{-2, 0, 3, 4, 5, 6, 1, specials[1], specials[2], -1, 2, specials[4]})
	got := SwiGLU(New(2, 3), h)
	for r := 0; r < 2; r++ {
		gate := FromSlice(1, 3, append([]float32(nil), h.Row(r)[:3]...))
		up := FromSlice(1, 3, append([]float32(nil), h.Row(r)[3:]...))
		sameFloats(t, fmt.Sprintf("row %d", r), got.Row(r), MulElem(SiLU(gate), up).Data)
	}
}

// vectorTails runs fn as the avx2 and go sub-tests: the INT8 product's
// tails have no 512-bit body.
func vectorTails(t *testing.T, fn func(t *testing.T)) {
	t.Run("avx2", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2 on this host")
		}
		fn(t)
	})
	t.Run("go", func(t *testing.T) { withoutAVX2(func() { fn(t) }) })
}

// quantSpecials are the lanes the INT8 tails' differentials draw from:
// NaN, both zeros and infinities, denormals, ties at .5, quotients past
// int32, and ordinary values of either sign.
var quantSpecials = []float32{
	specials[4], specials[0], specials[1], specials[2], specials[3], 1e-40, -3e-42,
	0.5, 1.5, 2.5, -0.5, -2.5, 127.5, 3e38, -3e38, 3e9, -5e9, 1, -1, 0.25, 200, -90,
}

// drawQuant fills xs from quantSpecials, or, with probability ordinary,
// with a normal value at a random power of ten.
func drawQuant(rng *rand.Rand, xs []float32, ordinary float64) {
	for j := range xs {
		if rng.Float64() < ordinary {
			xs[j] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		} else {
			xs[j] = quantSpecials[rng.Intn(len(quantSpecials))]
		}
	}
}

// TestMinMaxMatchesLoop pins MinMax to the loop quant's activation range
// came from — NaN skipped by `<` and `>` — at every length 0…70, over
// specials alone, specials among ordinary values, and all-NaN rows. Zero
// extremes compare equal whatever their sign (MinMax's contract).
func TestMinMaxMatchesLoop(t *testing.T) {
	vectorTails(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(45))
		for n := 0; n <= 70; n++ {
			for trial := 0; trial < 60; trial++ {
				xs := make([]float32, n)
				drawQuant(rng, xs, float64(trial%3)/2)
				if trial == 0 {
					for j := range xs {
						xs[j] = specials[4]
					}
				}
				wantLo, wantHi := float32(math.Inf(1)), float32(math.Inf(-1))
				for _, v := range xs {
					if v < wantLo {
						wantLo = v
					}
					if v > wantHi {
						wantHi = v
					}
				}
				if lo, hi := MinMax(xs); lo != wantLo || hi != wantHi {
					t.Fatalf("n=%d trial %d: MinMax %v = (%g, %g), want (%g, %g)", n, trial, xs, lo, hi, wantLo, wantHi)
				}
			}
		}
	})
}

// TestQuantizeU8MatchesLoop pins QuantizeU8 to
// clamp(int32(RoundToEven(float64(v/scale))) + zero, 0, 255) at every
// length 1…70, for scales that put ties on .5, denormal and infinite
// scales, and zero points across the code range: NaN, ±Inf and quotients
// past int32 must land where the scalar conversion puts them.
func TestQuantizeU8MatchesLoop(t *testing.T) {
	vectorTails(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(46))
		scales := []float32{1, 0.5, 1.0 / 255, 3e-39, float32(math.Inf(1)), 0.0123, 7}
		for n := 1; n <= 70; n++ {
			for _, scale := range scales {
				for _, zero := range []int32{0, 1, 128, 255} {
					xs := make([]float32, n)
					drawQuant(rng, xs, 0.3)
					got := make([]uint8, n)
					QuantizeU8(got, xs, scale, zero)
					for j, v := range xs {
						c := int32(math.RoundToEven(float64(v/scale))) + zero
						c = min(max(c, 0), 255)
						if got[j] != uint8(c) {
							t.Fatalf("n=%d scale %g zero %d lane %d: code of %g = %d, want %d", n, scale, zero, j, v, got[j], c)
						}
					}
				}
			}
		}
	})
}

// TestDequantizeRowMatchesLoop pins DequantizeRow to
// f · float32(acc − z·sums) at every length 1…70: accumulators and column
// sums at the int32 extremes (the product and difference wrap) and past
// float32's exact integers, factors drawn from the specials.
func TestDequantizeRowMatchesLoop(t *testing.T) {
	vectorTails(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		ints := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 16777217, -16777217, 1 << 30}
		draw := func() int32 {
			if rng.Intn(2) == 0 {
				return ints[rng.Intn(len(ints))]
			}
			return int32(rng.Uint32())
		}
		for n := 1; n <= 70; n++ {
			for _, z := range []int32{0, 1, 77, 255} {
				acc, sums, f := make([]int32, n), make([]int32, n), make([]float32, n)
				for j := range acc {
					acc[j], sums[j] = draw(), draw()
				}
				drawQuant(rng, f, 0.5)
				want := make([]float32, n)
				for j := range want {
					want[j] = f[j] * float32(acc[j]-z*sums[j])
				}
				got := make([]float32, n)
				DequantizeRow(got, acc, f, sums, z)
				sameFloats(t, fmt.Sprintf("n=%d z=%d", n, z), got, want)
			}
		}
	})
}

// TestQuantTailsRejectBadShapes requires the INT8 tails to refuse
// operands of different lengths before touching a lane.
func TestQuantTailsRejectBadShapes(t *testing.T) {
	for name, fn := range map[string]func(){
		"quantize":   func() { QuantizeU8(make([]uint8, 7), make([]float32, 8), 1, 0) },
		"dequantize": func() { DequantizeRow(make([]float32, 8), make([]int32, 8), make([]float32, 8), make([]int32, 9), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad shape accepted", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkQuantTails times MinMax, QuantizeU8 and DequantizeRow over
// one bench-small activation row (k = 128) and one FC2 input row
// (k = 512), on the AVX2 body and on the Go loop; ns/op ÷ k is the
// per-element cost EXPERIMENTS.md tabulates.
func BenchmarkQuantTails(b *testing.B) {
	for _, k := range []int{128, 512} {
		rng := rand.New(rand.NewSource(48))
		xs, o, f := make([]float32, k), make([]float32, k), make([]float32, k)
		q := make([]uint8, k)
		acc, sums := make([]int32, k), make([]int32, k)
		for j := range xs {
			xs[j], f[j] = float32(rng.NormFloat64()), float32(rng.NormFloat64())*1e-3
			acc[j], sums[j] = int32(rng.Intn(1<<20)), int32(rng.Intn(1<<12))
		}
		for _, leg := range []struct {
			name string
			on   bool
		}{{"avx2", true}, {"go", false}} {
			if leg.on && !useAVX2 {
				continue
			}
			run := func(name string, fn func()) {
				b.Run(fmt.Sprintf("%s/%s/k=%d", name, leg.name, k), func(b *testing.B) {
					saved := useAVX2
					useAVX2 = leg.on
					defer func() { useAVX2 = saved }()
					for i := 0; i < b.N; i++ {
						fn()
					}
				})
			}
			run("MinMax", func() { MinMax(xs) })
			run("QuantizeU8", func() { QuantizeU8(q, xs, 0.02, 128) })
			run("DequantizeRow", func() { DequantizeRow(o, acc, f, sums, 128) })
		}
	}
}

// BenchmarkPackBF16 times PackBF16 over one bench-small activation row
// (k = 128) and one FC2 input row (k = 512), on the AVX2 pass and on the
// Go loop; ns/op ÷ k is the per-element cost EXPERIMENTS.md tabulates.
func BenchmarkPackBF16(b *testing.B) {
	for _, k := range []int{128, 512} {
		rng := rand.New(rand.NewSource(48))
		xs, dst := make([]float32, k), make([]byte, 2*k)
		for j := range xs {
			xs[j] = float32(rng.NormFloat64())
		}
		for _, leg := range []struct {
			name string
			on   bool
		}{{"avx2", true}, {"go", false}} {
			if leg.on && !useAVX2 {
				continue
			}
			b.Run(fmt.Sprintf("%s/k=%d", leg.name, k), func(b *testing.B) {
				saved := useAVX2
				useAVX2 = leg.on
				defer func() { useAVX2 = saved }()
				for i := 0; i < b.N; i++ {
					PackBF16(dst, xs)
				}
			})
		}
	}
}
