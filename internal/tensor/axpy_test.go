package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// seedMatMul, seedAxpyTail and seedMatMulT are MatMul, its zero-skip tail
// and MatMulT as they stood before the row kernel, kept verbatim as the
// oracles the kernel differentials compare against.
func seedMatMul(a, b Matrix) Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	k, n := a.Cols, b.Cols
	parallelRows(a.Rows, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
				if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
					seedAxpyTail(orow, arow[kk:kk+4], b.Data[kk*n:], n)
					continue
				}
				b0 := b.Data[kk*n : kk*n+n]
				b1 := b.Data[(kk+1)*n : (kk+1)*n+n]
				b2 := b.Data[(kk+2)*n : (kk+2)*n+n]
				b3 := b.Data[(kk+3)*n : (kk+3)*n+n]
				for j := range orow {
					orow[j] = orow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			if kk < k {
				seedAxpyTail(orow, arow[kk:k], b.Data[kk*n:], n)
			}
		}
	})
	return out
}

func seedAxpyTail(orow, coeffs, bData []float32, n int) {
	for kk, av := range coeffs {
		if av == 0 {
			continue
		}
		brow := bData[kk*n : kk*n+n]
		for j, bv := range brow {
			orow[j] += av * bv
		}
	}
}

func seedMatMulT(a, b Matrix) Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	parallelRows(a.Rows, a.Cols*b.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				var acc float32
				for kk, av := range arow {
					acc += av * brow[kk]
				}
				orow[j] = acc
			}
		}
	})
	return out
}

// specials are the values the differentials plant in both operands:
// signed zeros, infinities, NaN, subnormals and magnitudes whose products
// overflow.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	1e-40, -3e-42, math.SmallestNonzeroFloat32, 3e38, -3e38, 1, -1,
}

// fill draws v's elements: a zero with probability zeros, a special with
// probability 0.05, otherwise a normal float32 scaled by a random power
// of ten.
func fill(rng *rand.Rand, v []float32, zeros float64) {
	for i := range v {
		switch p := rng.Float64(); {
		case p < zeros:
			v[i] = 0
		case p < zeros+0.05:
			v[i] = specials[rng.Intn(len(specials))]
		default:
			v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
	}
}

// sameFloats fails t unless got and want agree on every non-NaN value bit
// for bit and are NaN in exactly the same places (NaN sign and payload
// depend on operand order inside the FPU, which neither kernel pins).
func sameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if gNaN, wNaN := math.IsNaN(float64(g)), math.IsNaN(float64(w)); gNaN || wNaN {
			if gNaN != wNaN {
				t.Fatalf("%s: element %d = %g, want %g", what, i, g, w)
			}
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %g (%#08x), want %g (%#08x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// withoutAVX2 runs fn with the row kernel's assembly turned off.
func withoutAVX2(fn func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	fn()
}

// withoutAVX512 runs fn with rows4's 512-bit body turned off, so the
// AVX2 body runs where the host has it.
func withoutAVX512(fn func()) {
	saved := useAVX512
	useAVX512 = false
	defer func() { useAVX512 = saved }()
	fn()
}

// kernels runs fn as one sub-test per path the row kernel can take: the
// AVX-512 and AVX2 assembly (each skipped where the host lacks it) and
// the Go loop alone.
func kernels(t *testing.T, fn func(t *testing.T)) {
	t.Run("avx512", func(t *testing.T) {
		if !useAVX512 {
			t.Skip("no AVX-512 on this host")
		}
		fn(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2 on this host")
		}
		withoutAVX512(func() { fn(t) })
	})
	t.Run("go", func(t *testing.T) { withoutAVX2(func() { fn(t) }) })
}

// TestAxpyAssemblyMatchesGoLoop pins axpy4 and axpy1 to their Go loop for
// every row length 1…70 — below one vector, and around and between the
// 8- and 16-lane steps — with specials in the coefficients, the rows and
// the accumulator.
func TestAxpyAssemblyMatchesGoLoop(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host: axpy4 and axpy1 are the Go loop alone")
	}
	rng := rand.New(rand.NewSource(30))
	for n := 1; n <= 70; n++ {
		for trial := 0; trial < 20; trial++ {
			o := make([]float32, n)
			fill(rng, o, 0.2)
			var bs [4][]float32
			for i := range bs {
				bs[i] = make([]float32, n)
				fill(rng, bs[i], 0.2)
			}
			var as [4]float32
			fill(rng, as[:], 0)
			checkAxpy(t, fmt.Sprintf("n=%d trial %d", n, trial), f32Rows, o, as, bs)
		}
	}
}

// checkAxpy runs rk's axpy4 and axpy1 on copies of o with the assembly on
// and off and requires the two to agree.
func checkAxpy[E float32 | int8](t *testing.T, what string, rk rowKernel[E], o []float32, as [4]float32, bs [4][]E) {
	t.Helper()
	got4, want4 := append([]float32(nil), o...), append([]float32(nil), o...)
	rk.axpy4(got4, as[0], as[1], as[2], as[3], bs[0], bs[1], bs[2], bs[3])
	withoutAVX2(func() { rk.axpy4(want4, as[0], as[1], as[2], as[3], bs[0], bs[1], bs[2], bs[3]) })
	sameFloats(t, "axpy4 "+what, got4, want4)

	got1, want1 := append([]float32(nil), o...), append([]float32(nil), o...)
	rk.axpy1(got1, as[0], bs[0])
	withoutAVX2(func() { rk.axpy1(want1, as[0], bs[0]) })
	sameFloats(t, "axpy1 "+what, got1, want1)
}

// TestAxpyInt8AssemblyMatchesGoLoop is TestAxpyAssemblyMatchesGoLoop for
// the int8 rows: every row length 1…70, the rows counting through every
// int8 value at every length, specials in the coefficients and the
// accumulator.
func TestAxpyInt8AssemblyMatchesGoLoop(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host: the int8 axpy4 and axpy1 are the Go loop alone")
	}
	rng := rand.New(rand.NewSource(31))
	for n := 1; n <= 70; n++ {
		v := rng.Intn(256)
		for trial := 0; trial < max(20, (256+4*n-1)/(4*n)); trial++ {
			o := make([]float32, n)
			fill(rng, o, 0.2)
			var bs [4][]int8
			for i := range bs {
				bs[i] = make([]int8, n)
				for j := range bs[i] {
					bs[i][j] = int8(v)
					v++
				}
			}
			var as [4]float32
			fill(rng, as[:], 0)
			checkAxpy(t, fmt.Sprintf("int8 n=%d trial %d", n, trial), i8Rows, o, as, bs)
		}
	}
}

// TestAxpyRejectsShortOperand: the assembly checks nothing, so a row
// shorter than the output must panic before it runs — even one whose
// capacity would let a reslice past its length succeed — and
// MatMulInt8Into refuses an operand that is not k×n.
func TestAxpyRejectsShortOperand(t *testing.T) {
	o, short := make([]float32, 16), make([]float32, 15, 16)
	b8, short8 := make([]int8, 16), make([]int8, 15, 16)
	for _, call := range []func(){
		func() { f32Rows.axpy4(o, 1, 1, 1, 1, o, o, short, o) },
		func() { f32Rows.axpy1(o, 1, short) },
		func() { i8Rows.axpy4(o, 1, 1, 1, 1, b8, b8, b8, short8) },
		func() { i8Rows.axpy1(o, 1, short8) },
		func() { MatMulInt8Into(o, 1, 2, 16, o[:2], 2, make([]int8, 31, 32)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("short operand accepted")
				}
			}()
			call()
		}()
	}
}

// TestMatMulMatchesSeed: the nonzero-coefficient grouping adds exactly the
// terms the seed's MatMul added, in the same order, on both kernel paths —
// random shapes with 40% zero coefficients and specials in both operands,
// plus rows that are all zero, four-groups that are all zero, and NaN
// coefficients.
func TestMatMulMatchesSeed(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 600; trial++ {
			m, k, n := 1+rng.Intn(20), 1+rng.Intn(70), 1+rng.Intn(70)
			a, b := New(m, k), New(k, n)
			fill(rng, a.Data, 0.4)
			fill(rng, b.Data, 0.1)
			switch trial % 4 {
			case 1: // an all-zero row
				clear(a.Row(rng.Intn(m)))
			case 2: // an all-zero aligned four-group in every row
				if k >= 4 {
					g := 4 * rng.Intn(k/4)
					for i := 0; i < m; i++ {
						clear(a.Row(i)[g : g+4])
					}
				}
			case 3: // NaN coefficients
				for i := 0; i < 1+m/4; i++ {
					a.Data[rng.Intn(len(a.Data))] = float32(math.NaN())
				}
			}
			sameFloats(t, fmt.Sprintf("MatMul %dx%dx%d trial %d", m, k, n, trial), MatMul(a, b).Data, seedMatMul(a, b).Data)
		}
	})
}

// TestMatMulTMatchesMatMul: the LM head's equivalence. MatMul by an
// explicit transpose equals the seed's MatMulT bit for bit when the
// transposed operand is finite: MatMul adds the same products in the same
// k order from a +0 start, and each term it skips for a zero coefficient
// is ±0, which cannot change a sum that started at +0.
func TestMatMulTMatchesMatMul(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 200; trial++ {
			m, k, n := 1+rng.Intn(9), 1+rng.Intn(70), 1+rng.Intn(70)
			a, b := New(m, k), New(n, k) // b is used transposed
			fill(rng, a.Data, 0.3)
			for i := range b.Data {
				switch p := rng.Float64(); {
				case p < 0.1:
					b.Data[i] = specials[rng.Intn(2)] // +0 or -0
				case p < 0.15:
					b.Data[i] = 1e-40
				default:
					b.Data[i] = float32(rng.NormFloat64())
				}
			}
			bt := New(k, n)
			for r := 0; r < b.Rows; r++ {
				for c := 0; c < b.Cols; c++ {
					bt.Set(c, r, b.At(r, c))
				}
			}
			sameFloats(t, fmt.Sprintf("head %dx%dx%d trial %d", m, k, n, trial), MatMul(a, bt).Data, seedMatMulT(a, b).Data)
		}
	})
}

// TestMatMulInt8IntoMatchesMatMul: MatMulInt8Into is MatMulInto's kernel
// over an int8 operand, so it equals MatMulInto over the operand widened
// to float32 bit for bit — m 1…20 (every remainder a four-row block
// leaves), coefficients read at strides k and k+3, 40% zero coefficients
// of either sign (which its blocks add as ±0 terms and MatMulInto's skip)
// and specials in the rest — and it overwrites an output that starts as
// NaN.
func TestMatMulInt8IntoMatchesMatMul(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for trial := 0; trial < 400; trial++ {
			m, k, n := 1+rng.Intn(20), 1+rng.Intn(70), 1+rng.Intn(70)
			lda := k + 3*(trial%2)
			a, b8, b := New(m, k), make([]int8, k*n), make([]float32, k*n)
			fill(rng, a.Data, 0.4)
			for i := range b8 {
				b8[i] = int8(rng.Intn(256))
				b[i] = float32(b8[i])
			}
			strided := nans((m-1)*lda + k)
			for i := 0; i < m; i++ {
				copy(strided[i*lda:], a.Row(i))
			}
			got := nans(m * n)
			MatMulInt8Into(got, m, k, n, strided, lda, b8)
			sameFloats(t, fmt.Sprintf("MatMulInt8Into %dx%dx%d lda %d trial %d", m, k, n, lda, trial), got, MatMul(a, FromSlice(k, n, b)).Data)
		}
	})
}

// TestMatMulIntoBlocksMatchSeed: the four-row body adds every term of a
// block, so MatMulInto must give a block to it only when the seed would
// skip none of them. Against the seed's GEMM on every kernel path — m
// 1…20, k 1…70, n 1…130 (the 512-bit body's 32-lane strips and its 8-,
// 16- and 24-lane remainders), row strides n, n+1, n+7 and 3n — in three
// coefficient regimes: no zeros (every block takes the body), exactly one
// zero per block (none does, and B's row under that zero holds ∞, NaN,
// −0 and subnormals, whose products with it would be NaN or −0), and 40%
// zeros; specials throughout B.
func TestMatMulIntoBlocksMatchSeed(t *testing.T) {
	hostile := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		float32(math.Copysign(0, -1)), 1e-40, -3e-42}
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		for trial := 0; trial < 900; trial++ {
			m, k, n := 1+rng.Intn(20), 1+rng.Intn(70), 1+rng.Intn(130)
			ld := []int{n, n + 1, n + 7, 3 * n}[trial%4]
			regime := trial / 4 % 3
			a, dense := New(m, k), New(k, n)
			fill(rng, dense.Data, 0.1)
			if regime == 2 {
				fill(rng, a.Data, 0.4)
			} else {
				fill(rng, a.Data, 0)
				for i, v := range a.Data {
					if v == 0 {
						a.Data[i] = 1
					}
				}
			}
			if regime == 1 {
				for i := 0; i < m; i += 4 {
					r, kk := i+rng.Intn(min(4, m-i)), rng.Intn(k)
					a.Set(r, kk, specials[rng.Intn(2)]) // +0 or −0
					for j := range dense.Row(kk) {
						dense.Set(kk, j, hostile[rng.Intn(len(hostile))])
					}
				}
			}
			b := nans((k-1)*ld + n)
			for r := 0; r < k; r++ {
				copy(b[r*ld:], dense.Row(r))
			}
			out := nans(m * n)
			MatMulInto(out, a, Band(b, k, n, ld))
			sameFloats(t, fmt.Sprintf("MatMulInto %dx%dx%d ld %d regime %d trial %d", m, k, n, ld, regime, trial),
				out, seedMatMul(a, dense).Data)
		}
	})
}

// TestRows4RejectsShortOperand: the four-row bodies check nothing, so an
// output, coefficient block or B one value short of what the body would
// reach — even one whose capacity would let a reslice through — panics
// before the assembly runs, on every kernel path: the output keeps its
// NaNs.
func TestRows4RejectsShortOperand(t *testing.T) {
	kernels(t, rows4RejectsShortOperand)
}

func rows4RejectsShortOperand(t *testing.T) {
	const lda, ldb, k, n = 7, 24, 5, 16
	oLen, aLen, bLen := 4*n, 3*lda+k, (k-1)*ldb+n
	a := make([]float32, aLen, aLen+1)
	for i := range a {
		a[i] = 1
	}
	b, b8 := make([]float32, bLen, bLen+1), make([]int8, bLen, bLen+1)
	for _, tc := range []struct {
		name string
		call func(o []float32)
	}{
		{"f32 short out", func(o []float32) { f32Rows.rows4(o[:oLen-1], a, lda, b, ldb, k, n) }},
		{"f32 short coefficients", func(o []float32) { f32Rows.rows4(o, a[:aLen-1], lda, b, ldb, k, n) }},
		{"f32 short B", func(o []float32) { f32Rows.rows4(o, a, lda, b[:bLen-1], ldb, k, n) }},
		{"f32 stride below n", func(o []float32) { f32Rows.rows4(o, a, lda, b, n-1, k, n) }},
		{"int8 short out", func(o []float32) { i8Rows.rows4(o[:oLen-1], a, lda, b8, ldb, k, n) }},
		{"int8 short coefficients", func(o []float32) { i8Rows.rows4(o, a[:aLen-1], lda, b8, ldb, k, n) }},
		{"int8 short B", func(o []float32) { i8Rows.rows4(o, a, lda, b8[:bLen-1], ldb, k, n) }},
		{"int8 no k", func(o []float32) { i8Rows.rows4(o, a, lda, b8, ldb, 0, n) }},
	} {
		o := nans(oLen)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", tc.name)
				}
			}()
			tc.call(o)
		}()
		for i, v := range o {
			if !math.IsNaN(float64(v)) {
				t.Errorf("%s: output element %d written before the check", tc.name, i)
				break
			}
		}
	}
}

// nans returns n NaNs: an output MatMulInto must overwrite, or a sentinel
// showing it was never touched.
func nans(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.NaN())
	}
	return out
}

// TestMatMulIntoMatchesMatMul: the strided product equals MatMul over the
// same B copied out densely, on both kernel paths — random shapes up to
// 20 × 70 × 70, row strides n, n+1, n+7 and 3n, 40% zero coefficients and
// specials in both operands, and the values between B's rows set to NaN
// so a misplaced row cannot go unseen — and it overwrites an output that
// starts as NaN.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for trial := 0; trial < 600; trial++ {
			m, k, n := 1+rng.Intn(20), 1+rng.Intn(70), 1+rng.Intn(70)
			ld := []int{n, n + 1, n + 7, 3 * n}[trial%4]
			a, dense := New(m, k), New(k, n)
			fill(rng, a.Data, 0.4)
			fill(rng, dense.Data, 0.1)
			b := nans((k-1)*ld + n)
			for r := 0; r < k; r++ {
				copy(b[r*ld:], dense.Row(r))
			}
			out := nans(m * n)
			got := MatMulInto(out, a, Band(b, k, n, ld))
			if got.Rows != m || got.Cols != n || &got.Data[0] != &out[0] {
				t.Fatalf("trial %d: MatMulInto returned %dx%d not over out", trial, got.Rows, got.Cols)
			}
			sameFloats(t, fmt.Sprintf("MatMulInto %dx%dx%d ld %d trial %d", m, k, n, ld, trial), out, MatMul(a, dense).Data)
		}
		if got := MatMulInto(nil, New(0, 3), Band(make([]float32, 6), 3, 2, 2)); got.Rows != 0 || got.Cols != 2 {
			t.Fatalf("zero-row product is %dx%d", got.Rows, got.Cols)
		}
	})
}

// TestMatMulIntoRejectsBadOperands: a B one value short of its last row —
// even one whose capacity would let a reslice through — a B with a row
// fewer than a has coefficients, and an output of the wrong length panic
// before any row runs: the output keeps its NaNs.
func TestMatMulIntoRejectsBadOperands(t *testing.T) {
	const m, k, n, ld = 3, 5, 16, 20
	a := New(m, k)
	for i := range a.Data {
		a.Data[i] = 1
	}
	full := make([]float32, (k-1)*ld+n)
	for _, tc := range []struct {
		name   string
		out, b []float32
		rows   int
	}{
		{"short B", nans(m * n), full[:len(full)-1], k},
		{"B rows below k", nans(m * n), full, k - 1},
		{"long out", nans(m*n + 1), full, k},
		{"short out", nans(m*n - 1), full, k},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", tc.name)
				}
				for i, v := range tc.out {
					if !math.IsNaN(float64(v)) {
						t.Errorf("%s: output element %d written before the check", tc.name, i)
						return
					}
				}
			}()
			MatMulInto(tc.out, a, Band(tc.b, tc.rows, n, ld))
		}()
	}
}

// TestMatMulIntoFiniteOperandMatchesSeed: over an operand RoundedBF16
// proves finite every four-row block takes the body, zero coefficients
// included, and must still give the seed's bits, which skip their terms —
// on every kernel path, m 1…20, k 1…70, n 1…130, 40% zero coefficients
// of either sign and specials in the coefficients. A weight whose
// rounding reaches ∞ or NaN — a finite value just below MaxFloat32 that
// rounding carries to +∞ among them — is not proven, and its ∞ and NaN
// under zero coefficients stay out of the output.
func TestMatMulIntoFiniteOperandMatchesSeed(t *testing.T) {
	hostile := []float32{float32(math.Inf(1)), float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32}
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(35))
		for trial := 0; trial < 600; trial++ {
			m, k, n := 1+rng.Intn(20), 1+rng.Intn(70), 1+rng.Intn(130)
			a, w := New(m, k), New(k, n)
			fill(rng, a.Data, 0.4)
			for i := range w.Data {
				w.Data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
			}
			planted := trial%2 == 1
			if planted {
				kk := rng.Intn(k)
				for i := 0; i < m; i++ {
					a.Set(i, kk, specials[rng.Intn(2)]) // +0 or −0
				}
				w.Set(kk, rng.Intn(n), hostile[rng.Intn(len(hostile))])
			}
			b := RoundedBF16(w)
			if b.finite == planted {
				t.Fatalf("trial %d: operand proven finite = %v with a non-finite value planted = %v", trial, b.finite, planted)
			}
			rounded := w.Clone()
			RoundBF16(rounded.Data)
			sameFloats(t, fmt.Sprintf("RoundedBF16 trial %d", trial), b.data, rounded.Data)
			out := nans(m * n)
			MatMulInto(out, a, b)
			sameFloats(t, fmt.Sprintf("MatMulInto %dx%dx%d finite %v trial %d", m, k, n, b.finite, trial),
				out, seedMatMul(a, rounded).Data)
		}
	})
}

// BenchmarkRows4 reports the four-row body's rate in GMAC/s (4·k·n
// multiply-accumulates a call) on its AVX-512 and AVX2 bodies, for the
// bench-small model's product shapes k × n and one whose B fits in L1:
//
//	go test ./internal/tensor -run '^$' -bench Rows4
func BenchmarkRows4(b *testing.B) {
	for _, sh := range []struct{ k, n int }{{128, 384}, {128, 128}, {128, 512}, {512, 128}, {128, 256}, {32, 64}} {
		for _, leg := range []struct {
			name string
			wide bool
		}{{"avx512", true}, {"avx2", false}} {
			b.Run(fmt.Sprintf("%dx%d/%s", sh.k, sh.n, leg.name), func(b *testing.B) {
				if !useAVX2 || leg.wide && !useAVX512 {
					b.Skip("no " + leg.name + " on this host")
				}
				saved := useAVX512
				useAVX512 = leg.wide
				defer func() { useAVX512 = saved }()
				rng := rand.New(rand.NewSource(1))
				o, a, w := make([]float32, 4*sh.n), make([]float32, 4*sh.k), make([]float32, sh.k*sh.n)
				for i := range a {
					a[i] = float32(rng.NormFloat64())
				}
				for i := range w {
					w[i] = float32(rng.NormFloat64())
				}
				b.ResetTimer()
				for range b.N {
					f32Rows.rows4(o, a, sh.k, w, sh.n, sh.k, sh.n)
				}
				b.ReportMetric(float64(4*sh.k*sh.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
