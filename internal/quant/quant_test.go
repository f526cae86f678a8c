package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lia-sim/lia/internal/tensor"
)

func randomMatrix(rows, cols int, scale float32, seed int64) tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return m
}

func TestQuantizeWeightsRoundTrip(t *testing.T) {
	w := randomMatrix(32, 16, 0.5, 1)
	qw := QuantizeWeights(w)
	back := qw.Dequantize()
	// Per-column symmetric int8: error ≤ scale/2 per element.
	for j := 0; j < w.Cols; j++ {
		bound := float64(qw.ColScales[j]) * 0.51
		for i := 0; i < w.Rows; i++ {
			d := math.Abs(float64(w.At(i, j) - back.At(i, j)))
			if d > bound {
				t.Fatalf("(%d,%d): error %v exceeds %v", i, j, d, bound)
			}
		}
	}
}

func TestQuantizeWeightsZeroColumn(t *testing.T) {
	w := tensor.New(4, 2) // all zeros
	qw := QuantizeWeights(w)
	if qw.ColScales[0] != 1 {
		t.Error("zero column should get unit scale, not divide by zero")
	}
	back := qw.Dequantize()
	for _, v := range back.Data {
		if v != 0 {
			t.Error("zero weights must stay zero")
		}
	}
}

func TestWeightsBytes(t *testing.T) {
	qw := QuantizeWeights(randomMatrix(8, 4, 1, 2))
	// K·N int8 values + 4 bytes of float32 scale + 4 bytes of int32
	// column sum per output column — the sums are part of the shipped
	// format (the zero-point correction needs them at serve time).
	if qw.Bytes() != 8*4+4*4+4*4 {
		t.Errorf("Bytes = %d", qw.Bytes())
	}
	if qw.Footprint() != qw.Bytes() {
		t.Errorf("Footprint = %d, want Bytes %d", qw.Footprint(), qw.Bytes())
	}
}

func TestQuantizeActivationsRoundTrip(t *testing.T) {
	x := randomMatrix(5, 7, 3, 3)
	qx := QuantizeActivations(x)
	back := qx.Dequantize()
	bound := float64(qx.Scale) * 0.51
	for i := range x.Data {
		if d := math.Abs(float64(x.Data[i] - back.Data[i])); d > bound {
			t.Fatalf("element %d: error %v > %v", i, d, bound)
		}
	}
}

func TestQuantizeActivationsAllPositive(t *testing.T) {
	x := tensor.FromSlice(1, 4, []float32{1, 2, 3, 4})
	qx := QuantizeActivations(x)
	// Range is extended to include zero, so zero-point is 0.
	if qx.Zero != 0 {
		t.Errorf("zero point = %d, want 0", qx.Zero)
	}
	back := qx.Dequantize()
	if math.Abs(float64(back.At(0, 3)-4)) > float64(qx.Scale) {
		t.Error("round trip broke on all-positive input")
	}
}

func TestLinearMatchesFloatMatmul(t *testing.T) {
	x := randomMatrix(9, 33, 2, 4)
	w := randomMatrix(33, 11, 0.1, 5)
	want := tensor.MatMul(x, w)
	qw := QuantizeWeights(w)
	got := tensor.New(x.Rows, w.Cols)
	cycles, err := Linear(got, x, qw)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Error("Linear must run through the AMX pipeline")
	}
	// INT8×U8 with per-channel scales: expect ~1% relative error against
	// the float reference at these magnitudes.
	var ref float64
	for _, v := range want.Data {
		ref = math.Max(ref, math.Abs(float64(v)))
	}
	if e := MaxAbsError(got, want); e > 0.03*ref {
		t.Errorf("max abs error %v vs reference magnitude %v", e, ref)
	}
}

func TestLinearShapeMismatch(t *testing.T) {
	if _, err := Linear(tensor.New(2, 2), tensor.New(2, 3), QuantizeWeights(tensor.New(4, 2))); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := Linear(tensor.New(2, 3), tensor.New(2, 4), QuantizeWeights(tensor.New(4, 2))); err == nil {
		t.Error("destination shape mismatch accepted")
	}
	// Same rule as LinearINT4LUT: a hand-built value has no prepacked image.
	if _, err := Linear(tensor.New(2, 2), tensor.New(2, 4), Weights{K: 4, N: 2, Q: make([]int8, 8)}); err == nil {
		t.Error("missing prepacked image accepted")
	}
}

// Property: quantizing, dequantizing and re-quantizing weights is stable
// (idempotent after the first pass).
func TestWeightQuantizationIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		w := randomMatrix(8, 8, 1, seed)
		q1 := QuantizeWeights(w)
		q2 := QuantizeWeights(q1.Dequantize())
		for i := range q1.Q {
			if q1.Q[i] != q2.Q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsErrorShapeGuard(t *testing.T) {
	if !math.IsInf(MaxAbsError(tensor.New(1, 2), tensor.New(2, 1)), 1) {
		t.Error("shape mismatch should be +Inf")
	}
}
