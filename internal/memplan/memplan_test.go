package memplan

import (
	"math"
	"testing"

	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// TestOptimization1Example reproduces §5.2's worked example: OPT-30B at
// B=1, L=2016 on an A100-40GB. LIA pins ≈60% of decoder layers using
// ≈35 GB; FlexGen's coarser column granularity pins slightly less.
func TestOptimization1Example(t *testing.T) {
	lia := PlanLIAGPU(hw.A100, model.OPT30B, 1, 2016)
	if lia.PinnedLayers < 24 || lia.PinnedLayers > 34 {
		t.Errorf("LIA pinned %d layers, want ≈30 (62%% of 48)", lia.PinnedLayers)
	}
	if lia.PinnedParamFraction < 0.50 || lia.PinnedParamFraction > 0.72 {
		t.Errorf("LIA pinned fraction = %.2f, want ≈0.62", lia.PinnedParamFraction)
	}
	if lia.Used > hw.A100.MemCapacity {
		t.Errorf("plan overcommits GPU memory: %v", lia.Used)
	}
	if !lia.KVOnGPU {
		t.Error("B=1 KV cache easily fits on the GPU")
	}

	fg := PlanFlexGenGPU(hw.A100, model.OPT30B, 1, 2016)
	if fg.PinnedParamFraction >= lia.PinnedParamFraction {
		t.Errorf("FlexGen fraction %.2f should trail LIA's %.2f (granularity)",
			fg.PinnedParamFraction, lia.PinnedParamFraction)
	}
	if fg.PinnedParamFraction < 0.40 {
		t.Errorf("FlexGen fraction = %.2f, want ≈0.58", fg.PinnedParamFraction)
	}
}

func TestPinningShrinksWithBatch(t *testing.T) {
	// Table 4 commentary: Optimization-1's benefit diminishes with B as
	// activations/KV eat the spare memory.
	small := PlanLIAGPU(hw.A100, model.OPT30B, 1, 288)
	big := PlanLIAGPU(hw.A100, model.OPT30B, 900, 288)
	if big.PinnedLayers >= small.PinnedLayers {
		t.Errorf("pinned layers should shrink with B: %d → %d", small.PinnedLayers, big.PinnedLayers)
	}
	if big.KVOnGPU {
		t.Error("B=900 KV cannot live on a 40 GB GPU")
	}
}

func TestLargeModelPinsNothingMuch(t *testing.T) {
	// OPT-175B layers are 3.6 GB; a 40 GB A100 pins only a handful and
	// never the whole model.
	p := PlanLIAGPU(hw.A100, model.OPT175B, 1, 2016)
	if p.PinnedLayers > 12 {
		t.Errorf("pinned %d OPT-175B layers on 40 GB", p.PinnedLayers)
	}
	if p.PinnedLayers == model.OPT175B.Layers {
		t.Error("cannot pin all of OPT-175B")
	}
}

func TestSmallModelFullyResident(t *testing.T) {
	// OPT-6.7B fits entirely on an 80 GB H100.
	p := PlanLIAGPU(hw.H100, model.OPT6B7, 1, 2016)
	if p.PinnedLayers != model.OPT6B7.Layers {
		t.Errorf("pinned %d/%d layers", p.PinnedLayers, model.OPT6B7.Layers)
	}
	if !p.KVOnGPU {
		t.Error("KV should be resident too")
	}
}

func TestHostPlanDDROnly(t *testing.T) {
	plan, err := PlanHost(hw.SPRA100, model.OPT30B, 64, 288, cxl.DDROnlyPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if plan.CXLUsed != 0 {
		t.Error("DDR-only placement must not touch CXL")
	}
	if !plan.Fits {
		t.Errorf("OPT-30B at B=64 should fit in 512 GB DDR: %v", plan)
	}
	if plan.OffloadedFraction != 0 {
		t.Error("no offload expected")
	}
}

// TestTable3OffloadFraction reproduces Table 3's offloaded percentage:
// for OPT-30B at B=900 with short sequences, parameters are a large
// minority of the footprint (paper: 43.1% at L_in=32, L_out=32, falling
// as L_out grows).
func TestTable3OffloadFraction(t *testing.T) {
	sys := hw.SPRA100.WithCXL(2, hw.SamsungCXL128)
	frac := func(lout int) float64 {
		p, err := PlanHost(sys, model.OPT30B, 900, 32+lout, cxl.PolicyPlacement())
		if err != nil {
			t.Fatal(err)
		}
		return p.OffloadedFraction
	}
	f32 := frac(32)
	if f32 < 0.30 || f32 < frac(256) {
		t.Errorf("offloaded fraction at L_out=32 = %.2f, want ≥0.30 and decreasing in L_out (got %.2f at 256)", f32, frac(256))
	}
	// Longer outputs grow the KV share, shrinking the offloadable slice —
	// the monotone trend of Table 3.
	prev := 1.0
	for _, lout := range []int{32, 64, 128, 256} {
		f := frac(lout)
		if f >= prev {
			t.Errorf("offload fraction not decreasing at L_out=%d: %.3f ≥ %.3f", lout, f, prev)
		}
		prev = f
	}
}

func TestCXLReducesDDRUse(t *testing.T) {
	sys := hw.SPRA100.WithCXL(2, hw.SamsungCXL128)
	before, err := PlanHost(sys, model.OPT30B, 900, 64, cxl.DDROnlyPlacement())
	if err != nil {
		t.Fatal(err)
	}
	after, err := PlanHost(sys, model.OPT30B, 900, 64, cxl.PolicyPlacement())
	if err != nil {
		t.Fatal(err)
	}
	saved := before.DDRUsed - after.DDRUsed
	if saved != model.OPT30B.ParamBytes() {
		t.Errorf("DDR savings = %v, want the parameter bytes %v", saved, model.OPT30B.ParamBytes())
	}
}

// TestMaxBatchGrowsWithCXL reproduces Table 3's second effect: under the
// *same DDR footprint* as the B=900 DDR-only run, parameter offloading
// admits a larger batch — 1580 at L_out=32 (1.76×) down to 1050 at
// L_out=256 (1.17×) in the paper.
func TestMaxBatchGrowsWithCXL(t *testing.T) {
	sys := hw.SPRA100.WithCXL(2, hw.SamsungCXL128)
	cases := []struct {
		lout      int
		wantLo    float64
		wantHi    float64
		wantRatio float64
	}{
		{32, 1350, 1850, 1.76},
		{256, 950, 1250, 1.17},
	}
	for _, tc := range cases {
		lTotal := 32 + tc.lout
		ddr, err := PlanHost(sys, model.OPT30B, 900, lTotal, cxl.DDROnlyPlacement())
		if err != nil {
			t.Fatal(err)
		}
		got, err := MaxBatchWithinDDR(sys, model.OPT30B, lTotal, ddr.DDRUsed, 8192, cxl.PolicyPlacement())
		if err != nil {
			t.Fatal(err)
		}
		if float64(got) < tc.wantLo || float64(got) > tc.wantHi {
			t.Errorf("L_out=%d: max batch = %d, want ≈%.0f (%.2fx of 900)",
				tc.lout, got, 900*tc.wantRatio, tc.wantRatio)
		}
	}
}

func TestMaxBatchZeroWhenNothingFits(t *testing.T) {
	tiny := hw.SPRA100
	tiny.CPU.DRAMCapacity = units.GiB
	got, err := MaxBatch(tiny, model.OPT175B, 2048, 1024, cxl.DDROnlyPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("MaxBatch = %d, want 0", got)
	}
}

func TestGPUFits(t *testing.T) {
	// §7.8: OPT-175B at B=900 OOMs even on 8×80 GB.
	if GPUFits(hw.A100SXM, 8, model.OPT175B, 900, 288) {
		t.Error("B=900 should OOM a DGX-A100")
	}
	if !GPUFits(hw.A100SXM, 8, model.OPT175B, 1, 288) {
		t.Error("B=1 fits a DGX-A100")
	}
}

func TestPlanStrings(t *testing.T) {
	g := PlanLIAGPU(hw.A100, model.OPT30B, 1, 2016)
	if g.String() == "" {
		t.Error("empty GPUPlan string")
	}
	h, err := PlanHost(hw.SPRA100, model.OPT30B, 64, 288, cxl.DDROnlyPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if h.String() == "" {
		t.Error("empty HostPlan string")
	}
}

// TestPlansNeverOvercommit: across batch sizes, plans stay within GPU
// capacity, and among plans with the same KV residency decision the
// pinned fraction never grows with B. (Crossing the KV-fits boundary can
// legitimately *raise* pinning: evicting the cache frees its space.)
func TestPlansNeverOvercommit(t *testing.T) {
	prev := math.Inf(1)
	prevKV := true
	for _, b := range []int{1, 8, 64, 256, 900} {
		p := PlanLIAGPU(hw.A100, model.OPT30B, b, 288)
		if p.Used > p.Capacity {
			t.Errorf("B=%d overcommits: %v > %v", b, p.Used, p.Capacity)
		}
		if p.KVOnGPU == prevKV && p.PinnedParamFraction > prev {
			t.Errorf("pinned fraction rose at B=%d without a residency change", b)
		}
		prev, prevKV = p.PinnedParamFraction, p.KVOnGPU
	}
}
