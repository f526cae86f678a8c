// Package hw describes the hardware the paper evaluates on: AMX-enabled
// Intel Xeon CPUs (Sapphire Rapids, Granite Rapids), NVIDIA GPUs
// (P100 through H100 and Grace-Hopper), the PCIe/NVLink interconnects
// between them, and DDR5/CXL memory subsystems.
//
// Every quantity here is a *specification* — peak or nominal values taken
// from the paper's Table 2, Section 4, and footnotes. Shape-dependent
// effective throughput (what a GEMM of a given size actually achieves)
// lives in package perf, which layers calibrated utilization models on
// top of these specs.
package hw

import (
	"fmt"

	"github.com/lia-sim/lia/internal/units"
)

// ISA identifies the vector/matrix instruction set a CPU uses for
// offloaded computation.
type ISA int

// Supported CPU compute ISAs.
const (
	// AVX512 is the 1-D 512-bit vector engine used by pre-SPR offloading
	// frameworks (FlexGen, PowerInfer).
	AVX512 ISA = iota
	// AMX is Intel's 2-D tile matrix unit introduced with Sapphire Rapids.
	AMX
	// SVE2 is Arm's scalable vector extension (Grace CPU).
	SVE2
)

// String implements fmt.Stringer.
func (i ISA) String() string {
	switch i {
	case AVX512:
		return "AVX512"
	case AMX:
		return "AMX"
	case SVE2:
		return "SVE2"
	default:
		return fmt.Sprintf("ISA(%d)", int(i))
	}
}

// CPUSpec describes a CPU socket configuration.
type CPUSpec struct {
	// Name is the marketing / paper name, e.g. "SPR (Xeon 8460H, 40c)".
	Name string
	// Cores is the physical core count per socket times sockets in use.
	Cores int
	// ClockGHz is the sustained all-core frequency under AMX load.
	ClockGHz float64
	// MatrixISA is the best matrix-multiply engine available.
	MatrixISA ISA
	// PeakMatrix is the theoretical peak BF16 (or FP16) matrix throughput
	// of the matrix engine across all cores.
	PeakMatrix units.FLOPSRate
	// PeakVector is the theoretical peak half-precision throughput of the
	// AVX-class vector engine (used when a framework is AVX-only).
	PeakVector units.FLOPSRate
	// MemChannels is the number of populated DDR channels.
	MemChannels int
	// MemBW is the measured sustained DRAM bandwidth (e.g. 260 GB/s for
	// 8×DDR5-4800 on SPR per the paper).
	MemBW units.BytesPerSecond
	// DRAMCapacity is the installed DDR capacity.
	DRAMCapacity units.Bytes
	// TDP is the socket's thermal design power.
	TDP units.Watts
	// Cost is the approximate street price of the CPU + board + DRAM,
	// used by the cost model.
	Cost units.USD
}

// GPUSpec describes a GPU board.
type GPUSpec struct {
	// Name is the marketing name, e.g. "A100-40GB-PCIe".
	Name string
	// MemCapacity is the on-board HBM capacity.
	MemCapacity units.Bytes
	// MemBW is the HBM bandwidth.
	MemBW units.BytesPerSecond
	// PeakHalf is the peak dense half-precision (BF16/FP16, tensor-core
	// where available) throughput.
	PeakHalf units.FLOPSRate
	// KernelLaunch is the fixed host-side overhead to launch one kernel;
	// it dominates tiny GEMV shapes (§4.2's small-B/L observation).
	KernelLaunch units.Seconds
	// HostLink connects the GPU to the host CPU.
	HostLink LinkSpec
	// PeerLink connects GPUs to each other (NVLink); zero bandwidth means
	// no peer link.
	PeerLink LinkSpec
	// TDP is the board power.
	TDP units.Watts
	// Cost is the approximate street price of the board.
	Cost units.USD
}

// LinkSpec describes a point-to-point interconnect.
type LinkSpec struct {
	// Name identifies the link generation, e.g. "PCIe 4.0 x16".
	Name string
	// BW is the effective unidirectional bandwidth.
	BW units.BytesPerSecond
	// Setup is the fixed per-transfer latency (driver + DMA setup).
	Setup units.Seconds
}

// Transfer returns the time to move b bytes across the link.
func (l LinkSpec) Transfer(b units.Bytes) units.Seconds {
	return units.TransferTime(b, l.BW, l.Setup)
}

// Interconnect generations used across the evaluation systems.
var (
	// PCIe3x16 carries P100 and V100 boards.
	PCIe3x16 = LinkSpec{Name: "PCIe 3.0 x16", BW: 16 * units.GBps, Setup: 10 * units.Microsecond}
	// PCIe4x16 carries the A100 (Table 2).
	PCIe4x16 = LinkSpec{Name: "PCIe 4.0 x16", BW: 32 * units.GBps, Setup: 10 * units.Microsecond}
	// PCIe5x16 carries the H100 (Table 2; the paper quotes 64 GB/s).
	PCIe5x16 = LinkSpec{Name: "PCIe 5.0 x16", BW: 64 * units.GBps, Setup: 10 * units.Microsecond}
	// NVLink3 is the intra-DGX A100 fabric (per-GPU aggregate).
	NVLink3 = LinkSpec{Name: "NVLink 3.0", BW: 600 * units.GBps, Setup: 3 * units.Microsecond}
	// NVLinkC2C is the Grace-Hopper CPU-GPU link (900 GB/s, §8).
	NVLinkC2C = LinkSpec{Name: "NVLink-C2C", BW: 900 * units.GBps, Setup: 2 * units.Microsecond}
)

// CPU catalog. Peak matrix throughput follows the paper: SPR-AMX's
// theoretical peak is 90.1 TFLOPS (§4.1) and AMX performance scales with
// core count; AVX512 peaks at 1/8 of AMX on the same socket.
var (
	// SPR is the 40-core Sapphire Rapids Xeon Platinum 8460H from Table 2.
	SPR = CPUSpec{
		Name:         "SPR (Xeon 8460H, 40c)",
		Cores:        40,
		ClockGHz:     2.2,
		MatrixISA:    AMX,
		PeakMatrix:   90.1 * units.TFLOPS,
		PeakVector:   90.1 / 8 * units.TFLOPS,
		MemChannels:  8,
		MemBW:        260 * units.GBps, // measured, 8×DDR5-4800
		DRAMCapacity: 512 * units.GiB,
		TDP:          350,
		Cost:         7_000,
	}
	// GNR is the 128-core Granite Rapids part (§7.6). AMX peak scales with
	// cores (×3.2) at a slightly lower all-core clock; 12×DDR5-5600
	// channels deliver ~1.7× SPR's sustained bandwidth (§4.2).
	GNR = CPUSpec{
		Name:         "GNR (Xeon 6, 128c)",
		Cores:        128,
		ClockGHz:     2.0,
		MatrixISA:    AMX,
		PeakMatrix:   90.1 * (128.0 / 40.0) * (2.0 / 2.2) * units.TFLOPS, // ≈262 TFLOPS
		PeakVector:   90.1 * (128.0 / 40.0) * (2.0 / 2.2) / 8 * units.TFLOPS,
		MemChannels:  12,
		MemBW:        442 * units.GBps, // 1.7× SPR (§4.2)
		DRAMCapacity: 512 * units.GiB,
		TDP:          500,
		Cost:         9_000,
	}
	// Grace is the Arm CPU in a Grace-Hopper superchip (§8: 6.91 TFLOPS
	// SVE2, 512 GB/s memory bandwidth).
	Grace = CPUSpec{
		Name:         "Grace (72c, SVE2)",
		Cores:        72,
		ClockGHz:     3.1,
		MatrixISA:    SVE2,
		PeakMatrix:   6.91 * units.TFLOPS,
		PeakVector:   6.91 * units.TFLOPS,
		MemChannels:  16,
		MemBW:        512 * units.GBps,
		DRAMCapacity: 480 * units.GiB,
		TDP:          300,
		Cost:         12_000,
	}
)

// GPU catalog (§4's four generations plus the DGX SXM variant and GH200).
var (
	// P100 is the Pascal-generation board (FP16, no tensor cores).
	P100 = GPUSpec{
		Name:         "P100-16GB",
		MemCapacity:  16 * units.GiB,
		MemBW:        732 * units.GBps,
		PeakHalf:     21.2 * units.TFLOPS,
		KernelLaunch: 8 * units.Microsecond,
		HostLink:     PCIe3x16,
		TDP:          250,
		Cost:         2_500,
	}
	// V100 is the Volta board with first-generation tensor cores.
	V100 = GPUSpec{
		Name:         "V100-16GB",
		MemCapacity:  16 * units.GiB,
		MemBW:        900 * units.GBps,
		PeakHalf:     125 * units.TFLOPS,
		KernelLaunch: 8 * units.Microsecond,
		HostLink:     PCIe3x16,
		TDP:          300,
		Cost:         3_500,
	}
	// A100 is the 40 GB PCIe 4.0 Ampere board from Table 2.
	A100 = GPUSpec{
		Name:         "A100-40GB-PCIe",
		MemCapacity:  40 * units.GiB,
		MemBW:        1555 * units.GBps,
		PeakHalf:     312 * units.TFLOPS,
		KernelLaunch: 6 * units.Microsecond,
		HostLink:     PCIe4x16,
		TDP:          250,
		Cost:         10_000,
	}
	// A100SXM is the 80 GB NVLink variant populating a DGX-A100.
	A100SXM = GPUSpec{
		Name:         "A100-80GB-SXM",
		MemCapacity:  80 * units.GiB,
		MemBW:        2039 * units.GBps,
		PeakHalf:     312 * units.TFLOPS,
		KernelLaunch: 6 * units.Microsecond,
		HostLink:     PCIe4x16,
		PeerLink:     NVLink3,
		TDP:          500,
		Cost:         17_000,
	}
	// H100 is the 80 GB PCIe 5.0 Hopper board from Table 2.
	H100 = GPUSpec{
		Name:         "H100-80GB-PCIe",
		MemCapacity:  80 * units.GiB,
		MemBW:        2000 * units.GBps,
		PeakHalf:     756 * units.TFLOPS,
		KernelLaunch: 5 * units.Microsecond,
		HostLink:     PCIe5x16,
		TDP:          350,
		Cost:         30_000,
	}
	// H100GH is the Hopper die inside a GH200 superchip, reached over
	// NVLink-C2C rather than PCIe (§8).
	H100GH = GPUSpec{
		Name:         "H100-96GB-GH200",
		MemCapacity:  96 * units.GiB,
		MemBW:        4000 * units.GBps,
		PeakHalf:     989 * units.TFLOPS,
		KernelLaunch: 5 * units.Microsecond,
		HostLink:     NVLinkC2C,
		TDP:          700,
		Cost:         45_000,
	}
)

// CXLExpander describes one CXL Type-3 memory device (Table 2 lists two
// Samsung 128 GB expanders).
type CXLExpander struct {
	// Name identifies the device.
	Name string
	// Capacity is the device's usable capacity.
	Capacity units.Bytes
	// BW is the sustained bandwidth of a single expander (Figure 8a
	// measures ~17 GB/s each).
	BW units.BytesPerSecond
	// ExtraLatency is the added load-to-use latency over DDR
	// (140–170 ns, §2.3).
	ExtraLatency units.Seconds
	// CostPerGB is the repurposed-DDR4 cost per usable GB.
	CostPerGB units.USD
}

// SamsungCXL128 is the expander used in the paper's testbed.
var SamsungCXL128 = CXLExpander{
	Name:         "Samsung CXL Type-3 128GB",
	Capacity:     128 * units.GiB,
	BW:           17 * units.GBps,
	ExtraLatency: 155 * units.Nanosecond,
	// DDR-only memory costs $11.25/GB while a half-DDR half-CXL system
	// lands at $5.60/GB overall (§8); the repurposed-DDR4 expander side
	// therefore carries a small residual per-GB cost.
	CostPerGB: 1.6,
}

// System is an assembled evaluation platform: one CPU socket (or two for
// dual-socket GNR what-ifs), one or more GPUs, and optional CXL expanders.
type System struct {
	// Name identifies the configuration, e.g. "SPR-A100".
	Name string
	// CPU is the host processor.
	CPU CPUSpec
	// GPU is the accelerator board model.
	GPU GPUSpec
	// GPUCount is how many GPUs are installed (1 for LIA, 8 for DGX).
	GPUCount int
	// CXL lists installed CXL expanders (empty when none).
	CXL []CXLExpander
	// BasePower is the non-CPU/GPU platform power (fans, NICs, board).
	BasePower units.Watts
	// ChassisCost covers the server chassis, PSU, NIC, and storage.
	ChassisCost units.USD
}

// Validate reports configuration errors (no GPUs, nil CPU, etc.).
func (s System) Validate() error {
	if s.CPU.Cores <= 0 {
		return fmt.Errorf("system %s: CPU has no cores", s.Name)
	}
	if s.GPUCount < 0 {
		return fmt.Errorf("system %s: negative GPU count", s.Name)
	}
	if s.GPUCount > 0 && s.GPU.MemCapacity <= 0 {
		return fmt.Errorf("system %s: GPU %s has no memory", s.Name, s.GPU.Name)
	}
	for _, e := range s.CXL {
		if e.Capacity <= 0 || e.BW <= 0 {
			return fmt.Errorf("system %s: invalid CXL expander %s", s.Name, e.Name)
		}
	}
	return nil
}

// HostLink returns the CPU↔GPU interconnect.
func (s System) HostLink() LinkSpec { return s.GPU.HostLink }

// CXLCapacity returns the total installed CXL capacity.
func (s System) CXLCapacity() units.Bytes {
	var total units.Bytes
	for _, e := range s.CXL {
		total += e.Capacity
	}
	return total
}

// TotalCost returns the hardware acquisition cost of the system.
func (s System) TotalCost() units.USD {
	c := s.CPU.Cost + units.USD(s.GPUCount)*s.GPU.Cost + s.ChassisCost
	for _, e := range s.CXL {
		c += e.CostPerGB * units.USD(float64(e.Capacity)/float64(units.GiB))
	}
	return c
}

// TDP returns the nominal whole-system power envelope.
func (s System) TDP() units.Watts {
	return s.BasePower + s.CPU.TDP + units.Watts(s.GPUCount)*s.GPU.TDP
}

// Evaluation systems from Table 2, §7.6, §7.8 and §8.
var (
	// SPRA100 pairs the SPR Xeon with a 40 GB A100 over PCIe 4.0.
	SPRA100 = System{Name: "SPR-A100", CPU: SPR, GPU: A100, GPUCount: 1, BasePower: 300, ChassisCost: 3_000}
	// SPRH100 pairs the SPR Xeon with an 80 GB H100 over PCIe 5.0.
	SPRH100 = System{Name: "SPR-H100", CPU: SPR, GPU: H100, GPUCount: 1, BasePower: 300, ChassisCost: 3_000}
	// GNRA100 is the cost-efficient pairing highlighted in §7.6/§7.8
	// (the paper quotes a $22,000 system cost).
	GNRA100 = System{Name: "GNR-A100", CPU: GNR, GPU: A100, GPUCount: 1, BasePower: 300, ChassisCost: 3_000}
	// GNRH100 is the highest-end single-GPU configuration.
	GNRH100 = System{Name: "GNR-H100", CPU: GNR, GPU: H100, GPUCount: 1, BasePower: 300, ChassisCost: 3_000}
	// GH200 is the Grace-Hopper what-if from §8.
	GH200 = System{Name: "GH200", CPU: Grace, GPU: H100GH, GPUCount: 1, BasePower: 250, ChassisCost: 5_000}
	// DGXA100 is the 8-GPU NVLink baseline from §7.8 ($200,000, 6.5 kW).
	DGXA100 = System{Name: "DGX-A100", CPU: SPR, GPU: A100SXM, GPUCount: 8, BasePower: 1_500, ChassisCost: 48_000}
)

// WithCXL returns a copy of s with n CXL expanders of the given model
// installed.
func (s System) WithCXL(n int, model CXLExpander) System {
	out := s
	out.CXL = make([]CXLExpander, n)
	for i := range out.CXL {
		out.CXL[i] = model
	}
	out.Name = fmt.Sprintf("%s+%dxCXL", s.Name, n)
	return out
}
