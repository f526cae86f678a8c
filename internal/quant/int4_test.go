package quant

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/tensor"
)

func TestQuantizeINT4RoundTrip(t *testing.T) {
	w := randomMatrix(96, 24, 0.5, 11)
	qw, err := QuantizeINT4(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	back := qw.Dequantize()
	// Symmetric 4-bit per (group, column): error ≤ s/2 per element, plus a
	// little slack for the bf16 rounding of s itself.
	groups := (w.Rows + qw.Group - 1) / qw.Group
	for j := 0; j < w.Cols; j++ {
		for g := 0; g < groups; g++ {
			bound := float64(qw.scale(g, j)) * 0.52
			lo, hi := g*qw.Group, (g+1)*qw.Group
			if hi > w.Rows {
				hi = w.Rows
			}
			for i := lo; i < hi; i++ {
				if d := math.Abs(float64(w.At(i, j) - back.At(i, j))); d > bound {
					t.Fatalf("(%d,%d): error %v exceeds s/2 bound %v", i, j, d, bound)
				}
			}
		}
	}
}

func TestQuantizeINT4ZeroGroup(t *testing.T) {
	w := tensor.New(8, 3) // all zeros
	qw, err := QuantizeINT4(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range qw.Dequantize().Data {
		if v != 0 {
			t.Fatal("zero weights must stay zero")
		}
	}
}

// The ISSUE's footprint bound: the INT4 format ships at most half the
// bytes of the INT8 format for every weight shape the functional engine
// serves (K up to a few hundred at the default group of 128 — the bf16
// group scales cost 2·N·ceil(K/128) against INT8's 8·N side tables, so
// the bound holds exactly when ceil(K/128) ≤ (K/2 + 8 − K/2·...)… see
// int4.go; here we assert it directly on served shapes).
func TestINT4FootprintAtMostHalfOfINT8(t *testing.T) {
	for _, dims := range [][2]int{{64, 64}, {128, 384}, {256, 96}, {96, 256}} {
		w := randomMatrix(dims[0], dims[1], 1, int64(dims[0]))
		q8 := QuantizeWeights(w)
		q4, err := QuantizeINT4(w, 0) // DefaultGroupINT4
		if err != nil {
			t.Fatal(err)
		}
		if 2*q4.Bytes() > q8.Bytes() {
			t.Errorf("%dx%d: int4 %d B not ≤ half of int8 %d B", dims[0], dims[1], q4.Bytes(), q8.Bytes())
		}
		if q4.Footprint() != q4.Bytes() {
			t.Errorf("Footprint = %d, want Bytes %d", q4.Footprint(), q4.Bytes())
		}
	}
}

func TestLinearINT4LUTMatchesDequantizedReference(t *testing.T) {
	x := randomMatrix(3, 96, 2, 12)
	w := randomMatrix(96, 40, 0.1, 13)
	qw, err := QuantizeINT4(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.New(x.Rows, w.Cols)
	cycles, err := LinearINT4LUT(got, x, qw)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Error("LUT path must account cycles")
	}
	// The LUT kernel factors the bf16 group scale out of the lookup sum
	// and accumulates in a different order, so it is not bit-identical to
	// dequantize-then-matmul — the documented contract (DESIGN.md) is a
	// 5e-3 relative float tolerance.
	want := tensor.MatMul(x, qw.Dequantize())
	var ref float64
	for _, v := range want.Data {
		ref = math.Max(ref, math.Abs(float64(v)))
	}
	if e := MaxAbsError(got, want); e > 5e-3*math.Max(ref, 1) {
		t.Errorf("max abs error %v vs reference magnitude %v", e, ref)
	}
}

func TestLinearINT4LUTShapeMismatch(t *testing.T) {
	qw, err := QuantizeINT4(randomMatrix(8, 4, 1, 14), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LinearINT4LUT(tensor.New(2, 4), tensor.New(2, 7), qw); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := LinearINT4LUT(tensor.New(2, 5), tensor.New(2, 8), qw); err == nil {
		t.Error("destination shape mismatch accepted")
	}
	if _, err := LinearINT4LUT(tensor.New(2, 4), tensor.New(2, 8), WeightsINT4{K: 8, N: 4, Group: 4}); err == nil {
		t.Error("missing prepacked image accepted")
	}
}

func TestQuantizeINT4RejectsBadDims(t *testing.T) {
	if _, err := QuantizeINT4(tensor.Matrix{}, 16); err == nil {
		t.Error("empty matrix accepted")
	}
}

// Property: INT4 quantization is idempotent after the first pass — the
// bf16 scales and nibble codes survive a dequantize/requantize cycle.
func TestINT4QuantizationIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		w := randomMatrix(16, 8, 1, seed)
		q1, err := QuantizeINT4(w, 8)
		if err != nil {
			return false
		}
		q2, err := QuantizeINT4(q1.Dequantize(), 8)
		if err != nil {
			return false
		}
		for i := range q1.Codes {
			if q1.Codes[i] != q2.Codes[i] {
				return false
			}
		}
		for i := range q1.Scales {
			if q1.Scales[i] != q2.Scales[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The block-pruning helper must hit its sparsity target at exactly the
// kernel's skip granularity and report honest stats.
func TestPruneBlocksTargetsAndFootprint(t *testing.T) {
	w := randomMatrix(96, 64, 1, 15)
	pruned, st := PruneBlocks(w, 0.5)
	if got := st.Sparsity(); got < 0.5 {
		t.Fatalf("sparsity %v below target", got)
	}
	pre, err := amx.PrepackBF16Sparse(pruned.Data, pruned.Rows, pruned.Cols)
	if err != nil {
		t.Fatal(err)
	}
	nz, total := pre.BlockStats()
	if total != st.TotalBlocks || total-nz != st.ZeroBlocks {
		t.Errorf("prepack sees %d/%d zero blocks, prune reported %d/%d",
			total-nz, total, st.ZeroBlocks, st.TotalBlocks)
	}
	// Compressed footprint shrinks with sparsity and never exceeds dense.
	dense := 2 * w.Rows * w.Cols
	if f := SparseFootprint(w.Rows, w.Cols, st); f >= dense {
		t.Errorf("sparse footprint %d not below dense %d", f, dense)
	}
	if f := SparseFootprint(w.Rows, w.Cols, SparseStats{}); f != dense {
		t.Errorf("empty stats must price dense bytes, got %d", f)
	}
}

func TestPruneBlocksAllAndNothing(t *testing.T) {
	w := randomMatrix(32, 32, 1, 16)
	if _, st := PruneBlocks(w, 0); st.ZeroBlocks != 0 {
		t.Errorf("sparsity 0 zeroed %d blocks", st.ZeroBlocks)
	}
	all, st := PruneBlocks(w, 1)
	if st.ZeroBlocks != st.TotalBlocks {
		t.Errorf("sparsity 1 left %d live blocks", st.TotalBlocks-st.ZeroBlocks)
	}
	for _, v := range all.Data {
		if v != 0 {
			t.Fatal("sparsity 1 must zero everything")
		}
	}
}
