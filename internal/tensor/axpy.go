package tensor

// axpy4 is the row primitive under MatMul:
//
//	o[j] = o[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]
//
// for every j < len(o), each product and each sum rounded to float32 in
// exactly that left-to-right order. On amd64 hosts with AVX2 the first
// len(o) &^ 7 lanes run in assembly (axpy4AVX2: VMULPS then VADDPS, never
// a fused multiply-add, so each lane rounds as MULSS/ADDSS do); the loop
// below does the rest, and all of it elsewhere. The assembly checks
// nothing, so every operand is checked against len(o) here first.
func axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	n := len(o)
	if len(b0) < n || len(b1) < n || len(b2) < n || len(b3) < n {
		panic("tensor: axpy operand shorter than its output row")
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	j := 0
	if useAVX2 && n >= 8 {
		j = n &^ 7
		axpy4AVX2(&o[0], &b0[0], &b1[0], &b2[0], &b3[0], a0, a1, a2, a3, j)
	}
	// The float32 conversions forbid the compiler a fused multiply-add
	// (the language allows one where a product feeds a sum directly), so
	// this loop rounds like the assembly under every GOARCH and GOAMD64.
	for ; j < n; j++ {
		o[j] = o[j] + float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
	}
}

// axpy1 is axpy4's one-term form, o[j] = o[j] + a·b[j], under the same
// contract.
func axpy1(o []float32, a float32, b []float32) {
	n := len(o)
	if len(b) < n {
		panic("tensor: axpy operand shorter than its output row")
	}
	b = b[:n]
	j := 0
	if useAVX2 && n >= 8 {
		j = n &^ 7
		axpy1AVX2(&o[0], &b[0], a, j)
	}
	for ; j < n; j++ {
		o[j] = o[j] + float32(a*b[j])
	}
}
