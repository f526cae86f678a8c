package amx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// matmulINT8 is the unpacked-operand form the tests below are written
// against: prepack B, then run the one INT8 entry point.
func matmulINT8(a []uint8, b []int8, m, k, n int) ([]int32, uint64, error) {
	w, err := PrepackINT8(b, k, n)
	if err != nil {
		return nil, 0, err
	}
	return MatmulINT8Packed(a, m, w)
}

// matmulINT8On runs an INT8 product on kernel kern into a new m×N result.
func matmulINT8On(kern kernel, a []uint8, m int, w *PrepackedINT8) ([]int32, uint64, error) {
	c := make([]int32, m*w.N)
	cycles, err := matmulOn(kern, c, a, m, w)
	if err != nil {
		return nil, 0, err
	}
	return c, cycles, nil
}

func TestMatmulINT8SmallExact(t *testing.T) {
	// 2×3 · 3×2 with hand-checked values.
	a := []uint8{1, 2, 3, 4, 5, 6}
	b := []int8{1, -1, 2, 0, -3, 4}
	got, cycles, err := matmulINT8(a, b, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1*1 + 2*2 + 3*(-3), 1*(-1) + 0 + 3*4, 4*1 + 5*2 + 6*(-3), 4*(-1) + 0 + 6*4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if cycles == 0 {
		t.Error("no cycles recorded")
	}
}

func TestMatmulINT8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 1, 1}, {16, 64, 16}, {17, 65, 18}, {40, 200, 48}, {3, 300, 5}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := make([]uint8, m*k)
		b := make([]int8, k*n)
		for i := range a {
			a[i] = uint8(rng.Intn(256))
		}
		for i := range b {
			b[i] = int8(rng.Intn(256) - 128)
		}
		got, _, err := matmulINT8(a, b, m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceMatmulINT8(a, b, m, k, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: C[%d] = %d, want %d (integer matmul must be exact)", m, k, n, i, got[i], want[i])
			}
		}
	}
}

func TestMatmulINT8RejectsBadSizes(t *testing.T) {
	if _, _, err := matmulINT8(make([]uint8, 3), make([]int8, 4), 2, 2, 2); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, _, err := matmulINT8(nil, nil, 0, 1, 1); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestPackS8VNNIPanicsOnBadPad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PackS8VNNI(nil, 0, 0, 3, 4)
}

// Property: INT8 matmul with an all-ones B column sums the (unsigned) A
// rows exactly.
func TestMatmulINT8RowSumProperty(t *testing.T) {
	f := func(raw [24]uint8) bool {
		const m, k = 4, 6
		a := raw[:]
		b := make([]int8, k)
		for i := range b {
			b[i] = 1
		}
		got, _, err := matmulINT8(a, b, m, k, 1)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			var sum int32
			for j := 0; j < k; j++ {
				sum += int32(a[i*k+j])
			}
			if got[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The INT8 pipeline consumes roughly half the TDP cycles of the BF16
// pipeline for the same logical shape (64 vs 32 reduction elements per
// instruction) — the 2× INT8 throughput claim of the AMX ISA.
func TestINT8HalvesTDPCycles(t *testing.T) {
	const m, k, n = 32, 128, 32
	af := make([]float32, m*k)
	bf := make([]float32, k*n)
	_, bf16Cycles, err := matmulBF16(af, bf, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	ai := make([]uint8, m*k)
	bi := make([]int8, k*n)
	_, int8Cycles, err := matmulINT8(ai, bi, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(bf16Cycles) / float64(int8Cycles)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("BF16/INT8 cycle ratio = %.2f, want ≈2", ratio)
	}
}

// ReferenceMatmulINT8 is the plain-loop reference for MatmulINT8PackedInto,
// over the unpacked operands.
func ReferenceMatmulINT8(a []uint8, b []int8, m, k, n int) []int32 {
	c := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += int32(a[i*k+kk]) * int32(b[kk*n+j])
			}
			c[i*n+j] = acc
		}
	}
	return c
}
