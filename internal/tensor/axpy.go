package tensor

// The row primitives under MatMul and MatMulRowInt8 are
//
//	axpy4: o[j] = o[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]
//	axpy1: o[j] = o[j] + a·b[j]
//
// for every j < len(o), each product and each sum rounded to float32 in
// exactly that left-to-right order. The b rows hold float32, or int8 that
// widens to float32 exactly, so a product rounds once either way. On
// amd64 hosts with AVX2 the first len(o) &^ 7 lanes run in assembly
// (VMULPS then VADDPS, never a fused multiply-add, so each lane rounds as
// MULSS/ADDSS do; the int8 bodies widen each row first with VPMOVSXBD and
// VCVTDQ2PS); the Go loop does the rest, and all of it elsewhere. The
// assembly checks nothing, so every operand is checked against len(o)
// here first.

// rowKernel holds the assembly bodies axpy4 and axpy1 run for one
// right-operand element type.
type rowKernel[E float32 | int8] struct {
	four func(o *float32, b0, b1, b2, b3 *E, a0, a1, a2, a3 float32, n int)
	one  func(o *float32, b *E, a float32, n int)
}

var (
	f32Rows = rowKernel[float32]{axpy4AVX2, axpy1AVX2}
	i8Rows  = rowKernel[int8]{axpy4i8AVX2, axpy1i8AVX2}
)

func (rk rowKernel[E]) axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []E) {
	n := len(o)
	if len(b0) < n || len(b1) < n || len(b2) < n || len(b3) < n {
		panic("tensor: axpy operand shorter than its output row")
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	j := 0
	if useAVX2 && n >= 8 {
		j = n &^ 7
		rk.four(&o[0], &b0[0], &b1[0], &b2[0], &b3[0], a0, a1, a2, a3, j)
	}
	// The float32 conversions of the products forbid the compiler a fused
	// multiply-add (the language allows one where a product feeds a sum
	// directly), so this loop rounds like the assembly under every GOARCH
	// and GOAMD64.
	for ; j < n; j++ {
		o[j] = o[j] + float32(a0*float32(b0[j])) + float32(a1*float32(b1[j])) +
			float32(a2*float32(b2[j])) + float32(a3*float32(b3[j]))
	}
}

func (rk rowKernel[E]) axpy1(o []float32, a float32, b []E) {
	n := len(o)
	if len(b) < n {
		panic("tensor: axpy operand shorter than its output row")
	}
	b = b[:n]
	j := 0
	if useAVX2 && n >= 8 {
		j = n &^ 7
		rk.one(&o[0], &b[0], a, j)
	}
	for ; j < n; j++ {
		o[j] = o[j] + float32(a*float32(b[j]))
	}
}

// matmulRow accumulates arow·B into orow, B being len(arow) rows of
// len(orow) values, row k starting at b[k*ld]. Each output element is
// orow[j] plus the terms arow[k]·B[k][j] of the row's nonzero
// coefficients, added one at a time in k order, each product and sum
// rounded; zero coefficients are skipped, which is what lets FC2 behind
// ReLU skip half its k-rows. The nonzero coefficients stream into groups
// of four for axpy4, whose left-to-right sum is that same sequence of
// additions, and the last one to three go through axpy1.
func (rk rowKernel[E]) matmulRow(orow, arow []float32, b []E, ld int) {
	var ks [4]int
	g := 0
	for k, av := range arow {
		if av == 0 {
			continue
		}
		ks[g] = k
		if g++; g == 4 {
			rk.axpy4(orow, arow[ks[0]], arow[ks[1]], arow[ks[2]], arow[ks[3]],
				b[ks[0]*ld:], b[ks[1]*ld:], b[ks[2]*ld:], b[ks[3]*ld:])
			g = 0
		}
	}
	for _, k := range ks[:g] {
		rk.axpy1(orow, arow[k], b[k*ld:])
	}
}
