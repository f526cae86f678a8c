package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	if got := m.Row(1); len(got) != 3 || got[2] != 5 {
		t.Errorf("Row(1) = %v", got)
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if got.Data[i] != w {
			t.Errorf("C[%d] = %v, want %v", i, got.Data[i], w)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestAddAndBias(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	if got := AddBiasResidual(a, b, []float32{100, 200, 300}); got.Data[2] != 333 || a.Data[0] != 111 {
		t.Errorf("AddBiasResidual = %v", got.Data)
	}
	m := FromSlice(2, 2, []float32{0, 0, 1, 1})
	AddBias(m, []float32{5, 6})
	if m.At(0, 1) != 6 || m.At(1, 0) != 6 {
		t.Errorf("AddBias = %v", m.Data)
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, 2, 3})
	SoftmaxRows(m)
	var sum float32
	for _, v := range m.Data {
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-6 {
		t.Errorf("softmax row sums to %v", sum)
	}
	if !(m.Data[2] > m.Data[1] && m.Data[1] > m.Data[0]) {
		t.Errorf("softmax not monotone: %v", m.Data)
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Huge logits must not overflow.
	m := FromSlice(1, 2, []float32{1e30, 1e30})
	SoftmaxRows(m)
	if math.IsNaN(float64(m.Data[0])) || math.Abs(float64(m.Data[0])-0.5) > 1e-6 {
		t.Errorf("softmax of equal huge logits = %v", m.Data)
	}
}

func TestCausalMask(t *testing.T) {
	scores := New(3, 3)
	CausalMask(scores, 0)
	SoftmaxRows(scores)
	// Row 0 attends only to col 0; row 2 attends to all.
	if scores.At(0, 0) != 1 || scores.At(0, 1) != 0 {
		t.Errorf("row 0 after mask = %v", scores.Row(0))
	}
	if math.Abs(float64(scores.At(2, 0))-1.0/3) > 1e-6 {
		t.Errorf("row 2 after mask = %v", scores.Row(2))
	}
}

func TestCausalMaskWithOffset(t *testing.T) {
	// A decode row with 2 cached positions: offset = cached length means
	// nothing is masked for the single query row.
	scores := New(1, 3)
	CausalMask(scores, 2)
	for c := 0; c < 3; c++ {
		if math.IsInf(float64(scores.At(0, c)), -1) {
			t.Errorf("col %d unexpectedly masked", c)
		}
	}
}

func TestLayerNorm(t *testing.T) {
	m := FromSlice(1, 4, []float32{1, 2, 3, 4})
	gain := []float32{1, 1, 1, 1}
	bias := []float32{0, 0, 0, 0}
	out := LayerNorm(New(1, 4), m, gain, bias, 1e-5)
	var mean, variance float32
	for _, v := range out.Data {
		mean += v
	}
	mean /= 4
	for _, v := range out.Data {
		variance += (v - mean) * (v - mean)
	}
	variance /= 4
	if math.Abs(float64(mean)) > 1e-6 {
		t.Errorf("normalized mean = %v", mean)
	}
	if math.Abs(float64(variance)-1) > 1e-3 {
		t.Errorf("normalized variance = %v", variance)
	}
}

func TestReLU(t *testing.T) {
	m := FromSlice(1, 3, []float32{-1, 0, 2})
	AddBiasReLU(m, []float32{0, -1, 1})
	if m.Data[0] != 0 || m.Data[1] != 0 || m.Data[2] != 3 {
		t.Errorf("AddBiasReLU = %v", m.Data)
	}
}

func TestArgmaxRow(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 5, 2, 9, 0, 3})
	if m.ArgmaxRow(0) != 1 || m.ArgmaxRow(1) != 0 {
		t.Error("ArgmaxRow wrong")
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance for small matrices.
func TestMatMulAssociativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed) + rng.Int63()))
		a, b, c := New(3, 4), New(4, 5), New(5, 2)
		for i := range a.Data {
			a.Data[i] = r.Float32() - 0.5
		}
		for i := range b.Data {
			b.Data[i] = r.Float32() - 0.5
		}
		for i := range c.Data {
			c.Data[i] = r.Float32() - 0.5
		}
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.Equal(right, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: softmax output is a probability distribution for finite input.
func TestSoftmaxDistributionProperty(t *testing.T) {
	f := func(vals [6]int8) bool {
		m := New(1, 6)
		for i, v := range vals {
			m.Data[i] = float32(v) / 8
		}
		SoftmaxRows(m)
		var sum float32
		for _, v := range m.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(float64(sum)-1) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSiLU(t *testing.T) {
	m := FromSlice(1, 3, []float32{0, 10, -10})
	SiLU(m)
	if m.Data[0] != 0 {
		t.Errorf("SiLU(0) = %v", m.Data[0])
	}
	if math.Abs(float64(m.Data[1])-10) > 1e-3 {
		t.Errorf("SiLU(10) = %v, want ≈10", m.Data[1])
	}
	if math.Abs(float64(m.Data[2])) > 1e-3 {
		t.Errorf("SiLU(-10) = %v, want ≈0", m.Data[2])
	}
}

func TestMulElem(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	MulElem(a, b)
	if a.Data[2] != 18 {
		t.Errorf("MulElem = %v", a.Data)
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	MulElem(FromSlice(1, 2, []float32{1, 2}), FromSlice(2, 1, []float32{1, 2}))
}
