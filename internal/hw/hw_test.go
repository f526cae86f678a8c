package hw

import (
	"math"
	"testing"

	"github.com/lia-sim/lia/internal/units"
)

func TestCatalogValidates(t *testing.T) {
	for _, s := range []System{SPRA100, SPRH100, GNRA100, GNRH100, GH200, DGXA100} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsBadSystems(t *testing.T) {
	bad := System{Name: "no-cpu", GPU: A100, GPUCount: 1}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for CPU with no cores")
	}
	bad = SPRA100
	bad.GPUCount = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative GPU count")
	}
	bad = SPRA100
	bad.GPU.MemCapacity = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for memory-less GPU")
	}
	bad = SPRA100.WithCXL(1, CXLExpander{Name: "broken"})
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero-capacity CXL expander")
	}
}

func TestLinkTransfer(t *testing.T) {
	// The paper's footnote: moving OPT-175B's ~325 GB of BF16 parameters
	// over PCIe 5.0 costs ~5 s.
	params := units.Bytes(175e9 * 2) // 175B params × 2 bytes
	got := PCIe5x16.Transfer(params)
	if got < 5*units.Second || got > 6*units.Second {
		t.Errorf("OPT-175B over PCIe5 = %v, want ~5.5 s", got)
	}
}

func TestISAString(t *testing.T) {
	if AVX512.String() != "AVX512" || AMX.String() != "AMX" || SVE2.String() != "SVE2" {
		t.Error("ISA String() values wrong")
	}
	if ISA(42).String() != "ISA(42)" {
		t.Errorf("unknown ISA formatting: %q", ISA(42).String())
	}
}

func TestAMXScalesWithCores(t *testing.T) {
	// §4.1: AMX performance scales proportionally with core count. GNR has
	// 3.2× SPR's cores at ~0.91× clock.
	ratio := float64(GNR.PeakMatrix) / float64(SPR.PeakMatrix)
	want := (128.0 / 40.0) * (2.0 / 2.2)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("GNR/SPR AMX peak ratio = %v, want %v", ratio, want)
	}
}

func TestAVXIsOneEighthOfAMX(t *testing.T) {
	// §4.1: SPR-AMX theoretical peak is 8× AVX512.
	if r := float64(SPR.PeakMatrix) / float64(SPR.PeakVector); math.Abs(r-8) > 1e-9 {
		t.Errorf("AMX/AVX512 ratio = %v, want 8", r)
	}
}

func TestCXLAggregation(t *testing.T) {
	s := SPRA100.WithCXL(2, SamsungCXL128)
	if got := s.CXLCapacity(); got != 256*units.GiB {
		t.Errorf("CXL capacity = %v, want 256 GiB", got)
	}
	// Two 17 GB/s expanders interleaved reach 34 GB/s ≥ PCIe4's 32 GB/s —
	// the bandwidth-parity condition of Observation-1.
	var got units.BytesPerSecond
	for _, e := range s.CXL {
		got += e.BW
	}
	if got < s.HostLink().BW {
		t.Errorf("interleaved CXL BW %v below PCIe BW %v", got, s.HostLink().BW)
	}
	if s.Name != "SPR-A100+2xCXL" {
		t.Errorf("derived name = %q", s.Name)
	}
	// The base system must be untouched.
	if len(SPRA100.CXL) != 0 {
		t.Error("WithCXL mutated the catalog entry")
	}
}

func TestSystemCosts(t *testing.T) {
	// §7.8: GNR-A100 ≈ $22,000, DGX-A100 ≈ $200,000 (LIA system ≈ 10%).
	gnr := GNRA100.TotalCost()
	if gnr < 18_000 || gnr > 26_000 {
		t.Errorf("GNR-A100 cost = %v, want ≈ $22k", gnr)
	}
	dgx := DGXA100.TotalCost()
	if dgx < 170_000 || dgx > 230_000 {
		t.Errorf("DGX-A100 cost = %v, want ≈ $200k", dgx)
	}
	if ratio := float64(gnr) / float64(dgx); ratio > 0.15 {
		t.Errorf("GNR-A100/DGX cost ratio = %.2f, want ≈ 0.1", ratio)
	}
}

func TestSystemTDP(t *testing.T) {
	// DGX-A100 lands near its 6.5 kW envelope.
	if tdp := DGXA100.TDP(); tdp < 5_000 || tdp > 7_000 {
		t.Errorf("DGX TDP = %v", tdp)
	}
	if tdp := SPRA100.TDP(); tdp != 300+350+250 {
		t.Errorf("SPR-A100 TDP = %v, want 900 W", tdp)
	}
}

func TestHostLinkPerSystem(t *testing.T) {
	if SPRA100.HostLink() != PCIe4x16 {
		t.Error("SPR-A100 should use PCIe 4.0")
	}
	if SPRH100.HostLink() != PCIe5x16 {
		t.Error("SPR-H100 should use PCIe 5.0")
	}
	if GH200.HostLink() != NVLinkC2C {
		t.Error("GH200 should use NVLink-C2C")
	}
}
