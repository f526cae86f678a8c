package tensor

import (
	"fmt"
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
