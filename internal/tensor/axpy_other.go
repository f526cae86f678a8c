//go:build purego || !amd64

package tensor

// useAVX2 is false off amd64 and under the purego build tag: the row
// kernels and the elementwise tails run the Go loop on every lane. It is a variable so the tests that turn it off build
// everywhere.
var useAVX2 = false

// useAVX512 is false off amd64, like useAVX2.
var useAVX512 = false

func axpy4AVX2(o, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int) {
	panic("tensor: no AVX2 row kernel on this platform")
}

func axpy1AVX2(o, b *float32, a float32, n int) {
	panic("tensor: no AVX2 row kernel on this platform")
}

func axpy4i8AVX2(o *float32, b0, b1, b2, b3 *int8, a0, a1, a2, a3 float32, n int) {
	panic("tensor: no AVX2 row kernel on this platform")
}

func axpy1i8AVX2(o *float32, b *int8, a float32, n int) {
	panic("tensor: no AVX2 row kernel on this platform")
}

func rows4AVX2(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k, n int) {
	panic("tensor: no AVX2 row kernel on this platform")
}

func rows4AVX512(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k, n int) {
	panic("tensor: no AVX-512 row kernel on this platform")
}

func rows4i8AVX2(o *float32, ldo int, a *float32, lda int, b *int8, ldb, k, n int) {
	panic("tensor: no AVX2 row kernel on this platform")
}

func addBiasAVX2(o, p, b *float32, n int) {
	panic("tensor: no AVX2 tail kernel on this platform")
}

func addBiasReLUAVX2(o, p, b *float32, n int) {
	panic("tensor: no AVX2 tail kernel on this platform")
}

func addBiasResidualAVX2(o, p, b *float32, n int) {
	panic("tensor: no AVX2 tail kernel on this platform")
}

func roundBF16AVX2(x *float32, n int) {
	panic("tensor: no AVX2 tail kernel on this platform")
}

func minMaxAVX2(x *float32, n int) (lo, hi float32) {
	panic("tensor: no AVX2 tail kernel on this platform")
}

func quantizeU8AVX2(q *uint8, x *float32, scale float32, zero int32, n int) {
	panic("tensor: no AVX2 tail kernel on this platform")
}

func dequantAVX2(o *float32, acc *int32, f *float32, sums *int32, z int32, n int) {
	panic("tensor: no AVX2 tail kernel on this platform")
}
