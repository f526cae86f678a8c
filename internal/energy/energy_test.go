package energy

import (
	"math"
	"testing"

	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/units"
)

func TestForSystemFields(t *testing.T) {
	m := ForSystem(hw.SPRA100)
	if m.Base != hw.SPRA100.BasePower || m.CPUActive != hw.SPR.TDP || m.GPUActive != hw.A100.TDP {
		t.Errorf("model fields wrong: %+v", m)
	}
	if m.CPUIdle >= m.CPUActive || m.GPUIdle >= m.GPUActive {
		t.Error("idle power must be below active power")
	}
}

func TestEnergyBounds(t *testing.T) {
	m := ForSystem(hw.SPRA100)
	lat := units.Seconds(10)
	idle := m.Energy(lat, 0, 0)
	flatOut := m.Energy(lat, lat, lat)
	if idle <= 0 || flatOut <= idle {
		t.Errorf("idle %v, flat-out %v", idle, flatOut)
	}
	// Flat-out power equals TDP-ish: base + cpu + gpu.
	wantW := float64(hw.SPRA100.TDP())
	if got := float64(flatOut) / 10; math.Abs(got-wantW) > 1 {
		t.Errorf("flat-out power = %v W, want %v", got, wantW)
	}
	// Busy beyond latency clamps.
	if m.Energy(lat, 2*lat, 2*lat) != flatOut {
		t.Error("busy fraction should clamp at 1")
	}
	if m.Energy(0, 0, 0) != 0 {
		t.Error("zero latency → zero energy")
	}
}

func TestPerToken(t *testing.T) {
	if PerToken(1000, 100) != 10 {
		t.Error("PerToken wrong")
	}
	if PerToken(1000, 0) != 0 {
		t.Error("PerToken with zero tokens should be 0")
	}
}

func TestFasterRunUsesLessStaticEnergy(t *testing.T) {
	// Same busy work, shorter wall clock → less energy (Figure 12's
	// static-power effect).
	m := ForSystem(hw.SPRA100)
	slow := m.Energy(100, 10, 10)
	fast := m.Energy(20, 10, 10)
	if fast >= slow {
		t.Errorf("fast run energy %v should undercut slow %v", fast, slow)
	}
}
