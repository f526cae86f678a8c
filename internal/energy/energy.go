// Package energy models whole-system power draw and per-token energy the
// way §7.5 measures it with ipmitool: average system power during
// inference times latency, divided by generated tokens. Power splits into
// a static platform floor plus idle and active components per device, so
// frameworks that finish faster (less static energy) or use the more
// efficient device for compute-heavy phases (LIA's GPU prefill) come out
// ahead — the two effects Figure 12 attributes LIA's 1.1–10.3× advantage
// to.
package energy

import (
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/units"
)

// Idle power fractions of TDP: a powered-but-idle Xeon burns roughly a
// third of its TDP; an idle GPU far less.
const (
	cpuIdleFraction = 0.35
	gpuIdleFraction = 0.12
)

// Model is a calibrated system power model.
type Model struct {
	// Base is the always-on platform power (fans, PSU loss, board, DRAM).
	Base units.Watts
	// CPUIdle and CPUActive bound the CPU's draw; actual draw scales with
	// busy fraction.
	CPUIdle, CPUActive units.Watts
	// GPUIdle and GPUActive bound one GPU's draw.
	GPUIdle, GPUActive units.Watts
	// GPUCount scales the GPU component.
	GPUCount int
}

// ForSystem derives the power model from a system's TDPs.
func ForSystem(sys hw.System) Model {
	return Model{
		Base:      sys.BasePower,
		CPUIdle:   units.Watts(cpuIdleFraction * float64(sys.CPU.TDP)),
		CPUActive: sys.CPU.TDP,
		GPUIdle:   units.Watts(gpuIdleFraction * float64(sys.GPU.TDP)),
		GPUActive: sys.GPU.TDP,
		GPUCount:  sys.GPUCount,
	}
}

// Energy integrates system power over an inference run: latency is the
// wall-clock time; cpuBusy and gpuBusy are the devices' accumulated
// service times (gpuBusy is per-GPU when all GPUs work in lockstep).
func (m Model) Energy(latency, cpuBusy, gpuBusy units.Seconds) units.Joules {
	if latency <= 0 {
		return 0
	}
	clamp := func(busy units.Seconds) float64 {
		f := float64(busy) / float64(latency)
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	cpuW := float64(m.CPUIdle) + (float64(m.CPUActive)-float64(m.CPUIdle))*clamp(cpuBusy)
	gpuW := (float64(m.GPUIdle) + (float64(m.GPUActive)-float64(m.GPUIdle))*clamp(gpuBusy)) * float64(m.GPUCount)
	watts := float64(m.Base) + cpuW + gpuW
	return units.Joules(watts * float64(latency))
}

// PerToken divides energy by generated tokens (§7.5's energy/token).
func PerToken(e units.Joules, tokens int) units.Joules {
	if tokens <= 0 {
		return 0
	}
	return e / units.Joules(tokens)
}
