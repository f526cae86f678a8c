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
	back := qw.dequantize()
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
	back := qw.dequantize()
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
	back := qx.dequantize()
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
	back := qx.dequantize()
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
	cycles, err := Linear(got, x, qw, []int{x.Rows})
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
	if _, err := Linear(tensor.New(2, 2), tensor.New(2, 3), QuantizeWeights(tensor.New(4, 2)), []int{2}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := Linear(tensor.New(2, 3), tensor.New(2, 4), QuantizeWeights(tensor.New(4, 2)), []int{2}); err == nil {
		t.Error("destination shape mismatch accepted")
	}
	// Same rule as LinearINT4LUT: a hand-built value has no prepacked image.
	if _, err := Linear(tensor.New(2, 2), tensor.New(2, 4), Weights{K: 4, N: 2, Q: make([]int8, 8)}, []int{2}); err == nil {
		t.Error("missing prepacked image accepted")
	}
}

// Property: quantizing, dequantizing and re-quantizing weights is stable
// (idempotent after the first pass).
func TestWeightQuantizationIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		w := randomMatrix(8, 8, 1, seed)
		q1 := QuantizeWeights(w)
		q2 := QuantizeWeights(q1.dequantize())
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

// seedQuantizeInto is quantizeInto as it stood before its two loops went
// to tensor.MinMax and tensor.QuantizeU8, kept verbatim as their oracle.
func seedQuantizeInto(q []uint8, xs []float32) (scale float32, zero uint8) {
	minV, maxV := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range xs {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV > 0 {
		minV = 0
	}
	if maxV < 0 {
		maxV = 0
	}
	scale = (maxV - minV) / 255
	if scale == 0 {
		scale = 1
	}
	zero = uint8(math.RoundToEven(float64(-minV / scale)))
	for i, v := range xs {
		c := int32(math.RoundToEven(float64(v/scale))) + int32(zero)
		if c < 0 {
			c = 0
		}
		if c > 255 {
			c = 255
		}
		q[i] = uint8(c)
	}
	return scale, zero
}

// activationSpecials are the values the INT8 activation differentials
// plant among ordinary rows: NaN, both zeros and infinities, denormals
// and .5 ties.
var activationSpecials = []float32{
	float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	1e-40, -3e-42, math.SmallestNonzeroFloat32, 0.5, -0.5, 2.5, -2.5, 127.5,
}

// specialRows returns rows × k activations: row r ordinary at a range
// of 10^(r mod 7 − 3), with some rows also holding specials — one kind
// per row, so a row's extremes can be a NaN-free ±0, ±Inf or a denormal.
func specialRows(rows, k int, seed int64) tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(rows, k)
	for r := 0; r < rows; r++ {
		mag := math.Pow(10, float64(r%7-3))
		row := x.Row(r)
		for j := range row {
			row[j] = float32(rng.NormFloat64() * mag)
		}
		if r%3 != 0 {
			sp := activationSpecials[rng.Intn(len(activationSpecials))]
			for n := rng.Intn(4) + 1; n > 0; n-- {
				row[rng.Intn(k)] = sp
			}
		}
	}
	return x
}

// TestQuantizeIntoMatchesSeedLoop pins quantizeInto — the vector range
// and code passes where the host has AVX2 — to the seed's scalar loop:
// scale, zero point and every code, bit for bit, over ordinary rows,
// rows holding each special, all-NaN and all-zero rows, and zero extremes
// of either sign in either order.
func TestQuantizeIntoMatchesSeedLoop(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	cases := [][]float32{
		{nan, nan, nan, nan, nan, nan, nan, nan, nan},
		make([]float32, 17),
		{0, negZero, 0, negZero, 1, 2, 3, 4, 5, 6, 7, 8},
		{negZero, 0, negZero, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{0, negZero, -1, -2, -3, -4, -5, -6, -7, -8, 0, negZero},
		{negZero, negZero, negZero, negZero, negZero, negZero, negZero, negZero, 0},
		{float32(math.Inf(1)), 1, 2, 3, 4, 5, 6, 7, 8, float32(math.Inf(-1))},
		{3e38, -3e38, 1, 2, 3, 4, 5, 6, 7},
	}
	x := specialRows(40, 37, 11)
	for r := 0; r < x.Rows; r++ {
		cases = append(cases, x.Row(r))
	}
	for i, xs := range cases {
		got, want := make([]uint8, len(xs)), make([]uint8, len(xs))
		gs, gz := quantizeInto(got, xs)
		ws, wz := seedQuantizeInto(want, xs)
		if math.Float32bits(gs) != math.Float32bits(ws) || gz != wz {
			t.Fatalf("case %d %v: scale %g zero %d, seed loop %g %d", i, xs, gs, gz, ws, wz)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("case %d lane %d (%g): code %d, seed loop %d", i, j, xs[j], got[j], want[j])
			}
		}
	}
}

// TestLinearGroupsMatchPerGroup: Linear over row groups equals one
// Linear call per group, bit for bit — one-row groups, groups whose
// ranges differ by six orders of magnitude, and rows holding NaN, ±Inf,
// ±0, denormals and .5 ties — on the dense and the block-sparse image.
func TestLinearGroupsMatchPerGroup(t *testing.T) {
	groups := []int{1, 3, 1, 2, 5, 1, 4}
	rows := 0
	for _, g := range groups {
		rows += g
	}
	x := specialRows(rows, 37, 12)
	w := randomMatrix(37, 19, 0.2, 13)
	sparse, _ := QuantizeWeightsSparse(w, 0.5)
	for name, qw := range map[string]Weights{"dense": QuantizeWeights(w), "sparse": sparse} {
		got := tensor.New(rows, w.Cols)
		if _, err := Linear(got, x, qw, groups); err != nil {
			t.Fatal(err)
		}
		r := 0
		for gi, g := range groups {
			part := tensor.FromSlice(g, x.Cols, x.Data[r*x.Cols:(r+g)*x.Cols])
			want := tensor.New(g, w.Cols)
			if _, err := Linear(want, part, qw, []int{g}); err != nil {
				t.Fatal(err)
			}
			for j, v := range want.Data {
				if u := got.Data[r*w.Cols+j]; math.Float32bits(u) != math.Float32bits(v) {
					t.Fatalf("%s group %d element %d: %g (%#08x) over groups, %g (%#08x) alone", name, gi, j, u, math.Float32bits(u), v, math.Float32bits(v))
				}
			}
			r += g
		}
	}
}

// TestLinearRejectsBadGroups requires Linear to refuse row groups that
// do not tile x's rows.
func TestLinearRejectsBadGroups(t *testing.T) {
	qw := QuantizeWeights(randomMatrix(8, 4, 1, 14))
	x := randomMatrix(4, 8, 1, 15)
	for _, groups := range [][]int{nil, {}, {3}, {2, 3}, {4, 0}, {5, -1}} {
		if _, err := Linear(tensor.New(4, 4), x, qw, groups); err == nil {
			t.Errorf("groups %v over 4 rows accepted", groups)
		}
	}
}

// dequantize reconstructs the float32 weights.
func (w Weights) dequantize() tensor.Matrix {
	out := tensor.New(w.K, w.N)
	for i := 0; i < w.K; i++ {
		for j := 0; j < w.N; j++ {
			out.Set(i, j, float32(w.Q[i*w.N+j])*w.ColScales[j])
		}
	}
	return out
}

// dequantize reconstructs the float32 activations.
func (a Activations) dequantize() tensor.Matrix {
	out := tensor.New(a.M, a.K)
	for i, q := range a.Q {
		out.Data[i] = a.Scale * (float32(q) - float32(a.Zero))
	}
	return out
}
