package tensor

// The row primitives under MatMulInto and MatMulInt8Into are
//
//	axpy4: o[j] = o[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]
//	axpy1: o[j] = o[j] + a·b[j]
//	rows4: o[r][j] = o[r][j] + a[r][0]·B[0][j] + … + a[r][k−1]·B[k−1][j], r < 4
//
// for every lane j, each product and each sum rounded to float32 in
// exactly that left-to-right order. B holds float32, or int8 that widens
// to float32 exactly, so a product rounds once either way. rows4 is the
// four-row body: it keeps a strip of four rows' lanes in registers across
// every k, so each load of B feeds four rows. On amd64 hosts with AVX2
// the first n &^ 7 lanes run in assembly (VMULPS then VADDPS, never a
// fused multiply-add, so each lane rounds as MULSS/ADDSS do; the int8
// bodies widen B first with VPMOVSXBD and VCVTDQ2PS), and where the host
// also has AVX-512 the float32 rows4 runs those lanes 32 at a time in
// 512-bit registers with the same instructions in the same order; the Go
// loop does the rest, and all of it elsewhere. The assembly checks
// nothing, so every operand's reach is checked here first.

// rowKernel holds the assembly bodies axpy4, axpy1 and rows4 run for one
// right-operand element type; wide is rows4's 512-bit body, nil where
// there is none.
type rowKernel[E float32 | int8] struct {
	four  func(o *float32, b0, b1, b2, b3 *E, a0, a1, a2, a3 float32, n int)
	one   func(o *float32, b *E, a float32, n int)
	block func(o *float32, ldo int, a *float32, lda int, b *E, ldb, k, n int)
	wide  func(o *float32, ldo int, a *float32, lda int, b *E, ldb, k, n int)
}

var (
	f32Rows = rowKernel[float32]{axpy4AVX2, axpy1AVX2, rows4AVX2, rows4AVX512}
	i8Rows  = rowKernel[int8]{axpy4i8AVX2, axpy1i8AVX2, rows4i8AVX2, nil}
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

// rows4 accumulates a 4×k block of coefficients times B into four output
// rows: row r of the block is a[r*lda : r*lda+k], of the output
// o[r*n : r*n+n], and B is k rows of n values, row kk starting at
// b[kk*ldb]. Every coefficient's term is added, zeros included, in k
// order, so a block's rows equal matmulRow's exactly when matmulRow would
// skip nothing (or skip only ±0 terms).
func (rk rowKernel[E]) rows4(o, a []float32, lda int, b []E, ldb, k, n int) {
	if k < 1 || lda < k || ldb < n ||
		len(o) < 4*n || len(a) < 3*lda+k || len(b) < (k-1)*ldb+n {
		panic("tensor: four-row operand shorter than its block")
	}
	j := 0
	if useAVX2 && n >= 8 {
		j = n &^ 7
		body := rk.block
		if useAVX512 && rk.wide != nil {
			body = rk.wide
		}
		body(&o[0], n, &a[0], lda, &b[0], ldb, k, j)
	}
	// Lane by lane, the four rows' sums stay in registers across k.
	a0, a1, a2, a3 := a[:k], a[lda:lda+k], a[2*lda:2*lda+k], a[3*lda:3*lda+k]
	for ; j < n; j++ {
		s0, s1, s2, s3 := o[j], o[n+j], o[2*n+j], o[3*n+j]
		for kk, c0 := range a0 {
			bv := float32(b[kk*ldb+j])
			s0 = s0 + float32(c0*bv)
			s1 = s1 + float32(a1[kk]*bv)
			s2 = s2 + float32(a2[kk]*bv)
			s3 = s3 + float32(a3[kk]*bv)
		}
		o[j], o[n+j], o[2*n+j], o[3*n+j] = s0, s1, s2, s3
	}
}

// matmulRows accumulates rows [0, m) of A·B into o, row i of A being
// a[i*lda : i*lda+k] and of the output o[i*n : i*n+n], B as in rows4.
// Rows go four at a time through rows4 and the last m%4 one at a time
// through matmulRow. Each row gets matmulRow's bits either way. finite
// says every value of B is finite; then every block takes rows4, whose
// zero-coefficient terms change nothing:
//
//   - 0 · b is ±0 for every finite b;
//   - the output starts at +0 (MatMulInto clears it), and under
//     round-to-nearest-even a sum is −0 only when both addends are, so
//     from +0 a row's sum is never −0;
//   - x + ±0 is x for every x but −0, so adding a ±0 term is the identity
//     and rows4 gives the bits matmulRow gets by skipping it.
//
// Over a B not known finite a block takes rows4 only when none of its
// coefficients is zero, because a zero's term over ∞ or NaN is NaN, which
// matmulRow's skip never adds.
func (rk rowKernel[E]) matmulRows(o, a []float32, lda, m, k int, b []E, ldb, n int, finite bool) {
	for i := 0; i < m; i += 4 {
		if m-i >= 4 && k > 0 && (finite || nonzero(a[i*lda:], lda, k)) {
			rk.rows4(o[i*n:], a[i*lda:], lda, b, ldb, k, n)
			continue
		}
		for r := i; r < min(i+4, m); r++ {
			rk.matmulRow(o[r*n:(r+1)*n], a[r*lda:r*lda+k], b, ldb)
		}
	}
}

// nonzero reports whether the 4×k block at a (rows lda apart) holds no
// zero of either sign.
func nonzero(a []float32, lda, k int) bool {
	for r := 0; r < 4; r++ {
		for _, v := range a[r*lda : r*lda+k] {
			if v == 0 {
				return false
			}
		}
	}
	return true
}
