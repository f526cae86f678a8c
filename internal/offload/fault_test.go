package offload

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/units"
)

// TestLinkFaultIdentityMatchesAnalytic: an installed hook that always
// reports a healthy link must leave every virtual timestamp exactly
// where the analytic cost model puts it — same per-transfer cost, same
// serial occupancy, zero fault counts. The scenario lab depends on this:
// its baseline fault plan is the identity hook, and its cells are only
// comparable if "no fault" prices identically to "no hook".
func TestLinkFaultIdentityMatchesAnalytic(t *testing.T) {
	pool := cxl.FromSystem(hw.SPRA100.WithCXL(1, hw.SamsungCXL128))
	for _, from := range []Tier{DDR, CXL} {
		healthy := NewXferEngine(hw.PCIe4x16, pool)
		hooked := NewXferEngine(hw.PCIe4x16, pool)
		hooked.SetLinkFault(func(transfer uint64, from Tier, b units.Bytes) (float64, error) {
			return 1, nil
		})
		b := 48 * units.MiB
		for i := 0; i < 5; i++ {
			hs, hf := healthy.HostToGPU(from, b, 0)
			fs, ff := hooked.HostToGPU(from, b, 0)
			if hs != fs || hf != ff {
				t.Fatalf("%s transfer %d: identity hook moved the clock: healthy [%v,%v], hooked [%v,%v]",
					from, i, hs, hf, fs, ff)
			}
		}
		// The analytic cost is TransferTime over the effective bandwidth;
		// the virtual clock must agree within 5% (it is exact, but the
		// contract the harness relies on is the 5% bound the offload
		// differential suite already pins for streamed layers).
		want := healthy.xferCost(from, b, 1)
		got := hooked.Stats().LinkBusy / 5
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.05 {
			t.Fatalf("%s: per-transfer occupancy %v vs analytic %v (%.2f%% off)", from, got, want, rel*100)
		}
		if st := hooked.Stats(); st.LinkFaults != 0 || st.LinkRetries != 0 {
			t.Fatalf("%s: identity hook injected faults: %+v", from, st)
		}
	}
}

// TestLinkFaultDegradationScalesBandwidth: a 0.5 bandwidth scale must
// double the bandwidth-dependent part of the transfer and leave the
// setup latency alone.
func TestLinkFaultDegradationScalesBandwidth(t *testing.T) {
	pool := cxl.FromSystem(hw.SPRA100)
	x := NewXferEngine(hw.PCIe4x16, pool)
	b := 64 * units.MiB
	healthy := x.xferCost(DDR, b, 1)
	x.SetLinkFault(func(uint64, Tier, units.Bytes) (float64, error) { return 0.5, nil })
	s, f := x.HostToGPU(DDR, b, 0)
	want := hw.PCIe4x16.Setup + 2*(healthy-hw.PCIe4x16.Setup)
	if got := f - s; math.Abs(float64(got-want)) > 1e-12 {
		t.Fatalf("degraded transfer cost %v, want setup + 2×payload = %v (healthy %v)", got, want, healthy)
	}
	if st := x.Stats(); st.LinkFaults != 0 {
		t.Fatalf("degradation is not a fault: %+v", st)
	}
}

// TestLinkFaultTransientErrorRetries: a hook error must charge one
// wasted attempt plus the retry (both at the hook's scale), count the
// fault and the retry, and keep later transfers queueing behind the
// inflated occupancy — the latency-tail mechanism the chaos cells
// measure.
func TestLinkFaultTransientErrorRetries(t *testing.T) {
	pool := cxl.FromSystem(hw.SPRA100)
	x := NewXferEngine(hw.PCIe4x16, pool)
	b := 16 * units.MiB
	healthy := x.xferCost(DDR, b, 1)
	// Every 3rd transfer faults at nominal bandwidth.
	x.SetLinkFault(func(n uint64, _ Tier, _ units.Bytes) (float64, error) {
		if n%3 == 0 {
			return 1, errors.New("cxl: transient expander fault")
		}
		return 1, nil
	})
	var finish units.Seconds
	for i := 0; i < 6; i++ {
		_, finish = x.HostToGPU(DDR, b, 0)
	}
	st := x.Stats()
	if st.LinkFaults != 2 || st.LinkRetries != 2 {
		t.Fatalf("6 transfers with every-3rd faulting: faults=%d retries=%d, want 2/2", st.LinkFaults, st.LinkRetries)
	}
	// 4 healthy + 2 doubled = 8 healthy costs of serial occupancy.
	if want := 8 * healthy; math.Abs(float64(finish-want)) > 1e-12 {
		t.Fatalf("link frees at %v, want %v", finish, want)
	}
	if st.Transfers != 6 || st.LinkBytes != 6*b {
		t.Fatalf("fault retries must not double-count transfers or bytes: %+v", st)
	}
}

// TestHostInjectLinkFault: the hook reaches a live Host's prefetch
// transfers — tokens stay bit-identical while the virtual link records
// the injected faults.
func TestHostInjectLinkFault(t *testing.T) {
	cfg := llm.TinyConfig()
	newHost := func() *Host {
		plan, err := NewPlan(Config{
			System:  TinySystem(cfg, 1, 256, 1, 0),
			Model:   cfg,
			Batch:   1,
			Context: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHost(plan, core.FullGPU)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	prompt := []int{5, 17, 42, 9}
	gen := func(h *Host, fault LinkFault) ([]int, XferStats) {
		defer h.Close()
		if fault != nil {
			h.InjectLinkFault(fault)
		}
		m, err := llm.NewRandom(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		e := llm.NewExecutor(m, core.FullGPU)
		e.Mem = h
		out, err := e.Generate(prompt, 6)
		if err != nil {
			t.Fatal(err)
		}
		return out, h.XferStats()
	}
	base, baseStats := gen(newHost(), nil)
	faulted, faultStats := gen(newHost(), func(n uint64, _ Tier, _ units.Bytes) (float64, error) {
		if n%4 == 0 {
			return 0.5, fmt.Errorf("injected")
		}
		return 0.5, nil
	})
	if len(base) != len(faulted) {
		t.Fatalf("token counts diverge: %d vs %d", len(base), len(faulted))
	}
	for i := range base {
		if base[i] != faulted[i] {
			t.Fatalf("token %d diverges under link faults: %d vs %d", i, base[i], faulted[i])
		}
	}
	if faultStats.LinkFaults == 0 || faultStats.LinkRetries != faultStats.LinkFaults {
		t.Fatalf("injected faults not recorded: %+v", faultStats)
	}
	if faultStats.LinkBusy <= baseStats.LinkBusy {
		t.Fatalf("degraded link should be busier: %v vs healthy %v", faultStats.LinkBusy, baseStats.LinkBusy)
	}
}
