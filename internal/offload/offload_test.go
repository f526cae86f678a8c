package offload

import (
	"errors"
	"strings"
	"testing"

	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

func TestManagerAllocFreeMove(t *testing.T) {
	m := NewManager(10*units.MiB, 20*units.MiB, 30*units.MiB)
	a, err := m.Alloc(HBM, cxl.Parameters, "w", 6*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier() != HBM || a.Bytes() != 6*units.MiB {
		t.Fatalf("allocation = %s %s", a.Tier(), a.Bytes())
	}
	if _, err := m.Alloc(HBM, cxl.Parameters, "too big", 5*units.MiB); !errors.Is(err, ErrTierFull) {
		t.Fatalf("overcommit: want ErrTierFull, got %v", err)
	}
	// A different tier is unaffected by HBM pressure.
	b, err := m.Alloc(DDR, cxl.KVCache, "kv", 5*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Move(b, CXL); err != nil {
		t.Fatal(err)
	}
	if b.Tier() != CXL || m.Used(DDR) != 0 || m.Used(CXL) != 5*units.MiB {
		t.Fatalf("move accounting wrong: tier=%s ddr=%s cxl=%s", b.Tier(), m.Used(DDR), m.Used(CXL))
	}
	m.Free(b)
	m.Free(b) // idempotent
	if m.Used(CXL) != 0 {
		t.Fatalf("free accounting wrong: %s", m.Used(CXL))
	}
	if err := m.Move(b, DDR); err == nil {
		t.Fatal("moving a freed allocation should fail")
	}
	m.Read(a, units.MiB)
	m.Write(a, 2*units.MiB)
	snap := m.Snapshot()
	hbm := snap[HBM]
	if hbm.Reads != 1 || hbm.Writes != 1 || hbm.BytesRead != units.MiB || hbm.BytesWritten != 2*units.MiB {
		t.Fatalf("traffic counters: %+v", hbm)
	}
	if hbm.Peak != 6*units.MiB || snap[CXL].BytesIn != 5*units.MiB {
		t.Fatalf("peak/migration counters: hbm=%+v cxl=%+v", hbm, snap[CXL])
	}
}

func TestXferEngineSerializesLink(t *testing.T) {
	x := NewXferEngine(hw.PCIe4x16, cxl.Pool{DDRBW: 260 * units.GBps})
	b := 32 * units.MiB
	s1, f1 := x.HostToGPU(DDR, b, 0)
	s2, f2 := x.HostToGPU(DDR, b, 0)
	if s1 != 0 {
		t.Fatalf("first transfer should start immediately, got %v", s1)
	}
	if s2 != f1 {
		t.Fatalf("second transfer must wait for the link: start %v, first finished %v", s2, f1)
	}
	want := units.TransferTime(b, hw.PCIe4x16.BW, hw.PCIe4x16.Setup)
	if got := f1 - s1; got != want {
		t.Fatalf("DDR transfer cost %v, want %v", got, want)
	}
	if f2-s2 != want {
		t.Fatalf("costs should be identical, got %v", f2-s2)
	}
	st := x.Stats()
	if st.Transfers != 2 || st.LinkBytes != 2*b || st.LinkBusy != 2*want {
		t.Fatalf("stats: %+v", st)
	}
	x.Reset()
	if x.LinkFree() != 0 {
		t.Fatal("Reset should rewind the link clock")
	}
}

func TestXferEngineCXLSlowerThanDDR(t *testing.T) {
	// One 17 GB/s expander behind a 32 GB/s link: the pool is the
	// bottleneck (Observation-1 in reverse), so a CXL-sourced transfer
	// must cost more than the same bytes from DDR.
	pool := cxl.FromSystem(hw.SPRA100.WithCXL(1, hw.SamsungCXL128))
	x := NewXferEngine(hw.PCIe4x16, pool)
	b := 256 * units.MiB
	ddr := x.xferCost(DDR, b, 1)
	cx := x.xferCost(CXL, b, 1)
	if cx <= ddr {
		t.Fatalf("CXL transfer %v should exceed DDR transfer %v", cx, ddr)
	}
}

func TestNewPlanTinySystemPinsExactly(t *testing.T) {
	for _, tc := range []struct {
		cfg    model.Config
		ctx    int
		pinned int
	}{
		{llm.TinyConfig(), 128, 0},
		// Pinning with host-side KV needs kv > layer: ctx 256 for tiny-opt.
		{llm.TinyConfig(), 256, 1},
		{llm.TinyLlamaConfig(), 128, 0},
	} {
		sys := TinySystem(tc.cfg, 1, tc.ctx, tc.pinned, 0)
		plan, err := NewPlan(Config{System: sys, Model: tc.cfg, Batch: 1, Context: tc.ctx})
		if err != nil {
			t.Fatalf("%s pinned=%d: %v", tc.cfg.Name, tc.pinned, err)
		}
		if plan.GPU.PinnedLayers != tc.pinned {
			t.Errorf("%s: pinned %d layers, want %d (%s)", tc.cfg.Name, plan.GPU.PinnedLayers, tc.pinned, plan.GPU)
		}
		if plan.GPU.KVOnGPU {
			t.Errorf("%s: KV must stay host-side on the tiny system", tc.cfg.Name)
		}
		if plan.ParamTier != DDR || plan.KVTier != DDR {
			t.Errorf("%s: DDR-only system must host everything in DDR, got params→%s kv→%s",
				tc.cfg.Name, plan.ParamTier, plan.KVTier)
		}
		if plan.KVBudget() <= 0 {
			t.Errorf("%s: KV budget %s", tc.cfg.Name, plan.KVBudget())
		}
	}
}

func TestNewPlanPolicyPlacementTiers(t *testing.T) {
	cfg := llm.TinyConfig()
	sys := TinySystem(cfg, 1, 128, 0, 2)
	plan, err := NewPlan(Config{System: sys, Model: cfg, Batch: 1, Context: 128, Placement: cxl.PolicyPlacement()})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ParamTier != CXL {
		t.Errorf("§6 policy must place parameters in CXL, got %s", plan.ParamTier)
	}
	if plan.KVTier != DDR || plan.ActTier != DDR {
		t.Errorf("§6 policy must keep KV and activations in DDR, got %s/%s", plan.KVTier, plan.ActTier)
	}
	if !strings.Contains(plan.String(), "params→cxl") {
		t.Errorf("plan string: %s", plan)
	}
}

func TestNewPlanRejectsCXLPlacementWithoutExpanders(t *testing.T) {
	cfg := llm.TinyConfig()
	sys := TinySystem(cfg, 1, 128, 0, 0)
	if _, err := NewPlan(Config{System: sys, Model: cfg, Placement: cxl.PolicyPlacement()}); err == nil {
		t.Fatal("CXL placement without expanders must fail")
	}
}
