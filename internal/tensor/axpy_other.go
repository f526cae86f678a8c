//go:build purego || !amd64

package tensor

// useAVX2 is false off amd64 and under the purego build tag: the row
// kernels and the elementwise tails run the Go loop on every lane. It is a variable so the tests that turn it off build
// everywhere.
var useAVX2 = false

// useAVX512 is false off amd64, like useAVX2.
var useAVX512 = false

// The assembly's stubs below are never reached: every caller tests
// useAVX2 or useAVX512 first.
func unavailable(kernel string) {
	panic("tensor: no " + kernel + " kernel on this platform")
}

func axpy4AVX2(o, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int) {
	unavailable("AVX2 row")
}

func axpy1AVX2(o, b *float32, a float32, n int) {
	unavailable("AVX2 row")
}

func axpy4i8AVX2(o *float32, b0, b1, b2, b3 *int8, a0, a1, a2, a3 float32, n int) {
	unavailable("AVX2 row")
}

func axpy1i8AVX2(o *float32, b *int8, a float32, n int) {
	unavailable("AVX2 row")
}

func rows4AVX2(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k, n int) {
	unavailable("AVX2 row")
}

func rows4AVX512(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k, n int) {
	unavailable("AVX-512 row")
}

func rows4i8AVX2(o *float32, ldo int, a *float32, lda int, b *int8, ldb, k, n int) {
	unavailable("AVX2 row")
}

func addBiasAVX2(o, p, b *float32, n int) {
	unavailable("AVX2 tail")
}

func addBiasReLUAVX2(o, p, b *float32, n int) {
	unavailable("AVX2 tail")
}

func addBiasResidualAVX2(o, p, b *float32, n int) {
	unavailable("AVX2 tail")
}

func roundBF16AVX2(x *float32, n int) {
	unavailable("AVX2 tail")
}

func packBF16AVX2(dst *byte, src *float32, n int) {
	unavailable("AVX2 pack")
}

func minMaxAVX2(x *float32, n int) (lo, hi float32) {
	unavailable("AVX2 tail")
	return 0, 0
}

func quantizeU8AVX2(q *uint8, x *float32, scale float32, zero int32, n int) {
	unavailable("AVX2 tail")
}

func dequantAVX2(o *float32, acc *int32, f *float32, sums *int32, z int32, n int) {
	unavailable("AVX2 tail")
}
