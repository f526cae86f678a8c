package engine

import (
	"math"
	"testing"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/quant"
	"github.com/lia-sim/lia/internal/tensor"
)

// The compressed-weight tiers thread through the analytic engine via
// model.Config.Quant: smaller parameter bytes mean more pinned layers
// and less PCIe traffic, and the sparse tier's (1 − s) FLOP scaling
// means faster CPU-offloaded parameter sublayers.

func TestSparseVariantFasterAndPinsMore(t *testing.T) {
	base := Config{Framework: LIA, System: hw.SPRA100, Model: model.OPT30B, Workload: wl(8, 512, 128)}
	dense := mustFit(t, base)

	sp := base
	sp.Model = model.OPT30B.SparseVariant(0.5)
	sparse := mustFit(t, sp)

	if sparse.Throughput <= dense.Throughput {
		t.Errorf("sparse throughput %v not above dense %v", sparse.Throughput, dense.Throughput)
	}
	if sparse.PinnedLayers < dense.PinnedLayers {
		t.Errorf("sparse pins %d layers, dense pins %d — compression must not pin fewer", sparse.PinnedLayers, dense.PinnedLayers)
	}
}

func TestInt4LUTVariantPinsEverythingSooner(t *testing.T) {
	base := Config{Framework: LIA, System: hw.SPRA100, Model: model.OPT66B, Workload: wl(8, 512, 128)}
	dense := mustFit(t, base)

	i4 := base
	i4.Model = model.OPT66B.Int4LUTVariant(0)
	int4 := mustFit(t, i4)

	if int4.PinnedLayers <= dense.PinnedLayers {
		t.Errorf("int4 pins %d layers, dense pins %d — a quarter-size image must pin more", int4.PinnedLayers, dense.PinnedLayers)
	}
	if int4.Throughput <= dense.Throughput {
		t.Errorf("int4 throughput %v not above dense %v", int4.Throughput, dense.Throughput)
	}
}

// Calibration: the analytic model prices the sparse tier's parameter
// FLOPs at (1 − s)× dense. The emulated kernel's measured cycle ratio at
// the same block sparsity must agree within 10% — the documented
// tolerance, which covers the per-row-stripe TileZero/TileStore overhead
// the skip path cannot elide.
func TestSparseSpeedupCalibratedAgainstKernel(t *testing.T) {
	const k, n, rows = 256, 256, 16
	w := tensor.New(k, n)
	for i := range w.Data {
		w.Data[i] = float32((i%17)-8) * 0.03
	}
	x := make([]float32, rows*k)
	for i := range x {
		x[i] = float32((i%13)-6) * 0.05
	}

	densePre, err := amx.PrepackBF16(w.Data, k, n)
	if err != nil {
		t.Fatal(err)
	}
	denseCycles, err := amx.MatmulBF16PackedInto(make([]float32, rows*n), x, rows, densePre)
	if err != nil {
		t.Fatal(err)
	}

	const sparsity = 0.5
	pruned, st := quant.PruneBlocks(w, sparsity)
	sparsePre, err := amx.PrepackBF16Sparse(pruned.Data, pruned.Rows, pruned.Cols)
	if err != nil {
		t.Fatal(err)
	}
	sparseCycles, err := amx.MatmulBF16PackedInto(make([]float32, rows*n), x, rows, sparsePre)
	if err != nil {
		t.Fatal(err)
	}

	measured := float64(sparseCycles) / float64(denseCycles)
	analytic := 1 - st.Sparsity() // the Compute() scale the engine prices
	if math.Abs(measured-analytic) > 0.10 {
		t.Errorf("measured sparse cycle ratio %.3f vs analytic %.3f — outside the 10%% calibration tolerance", measured, analytic)
	}

	// And the analytic engine's sublayer pricing reflects exactly that
	// scale: the sparse variant's FC1 FLOPs are (1 − s)× dense.
	cfg := model.OPT30B
	sp := cfg.SparseVariant(st.Sparsity())
	ratio := float64(sp.Compute(model.Decode, model.FC1, 1, 1)) / float64(cfg.Compute(model.Decode, model.FC1, 1, 1))
	if math.Abs(ratio-analytic) > 1e-9 {
		t.Errorf("engine FLOP scale %.6f, want %.6f", ratio, analytic)
	}
}
