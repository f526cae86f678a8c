package lia

import (
	"fmt"
	"strings"

	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
)

// Evaluation systems (Table 2, §7.6, §7.8, §8).
var (
	// SPRA100 pairs a 40-core Sapphire Rapids Xeon with a 40 GB A100
	// over PCIe 4.0 — the paper's primary testbed.
	SPRA100 = hw.SPRA100
	// SPRH100 swaps in an 80 GB H100 over PCIe 5.0.
	SPRH100 = hw.SPRH100
	// GNRA100 pairs a 128-core Granite Rapids Xeon with the A100 — the
	// cost-efficiency sweet spot of §7.8.
	GNRA100 = hw.GNRA100
	// GNRH100 is the highest-end single-GPU configuration.
	GNRH100 = hw.GNRH100
	// GH200 is the Grace-Hopper what-if platform of §8.
	GH200 = hw.GH200
	// DGXA100 is the 8-GPU NVLink baseline of §7.8.
	DGXA100 = hw.DGXA100
)

// Evaluated models.
var (
	// OPT30B, OPT66B and OPT175B are the paper's primary benchmarks.
	OPT30B  = model.OPT30B
	OPT66B  = model.OPT66B
	OPT175B = model.OPT175B
	// Llama270B, Chinchilla70B and Bloom176B cover §7.7's
	// generalizability study (Llama2 also anchors the PowerInfer
	// comparison, §7.9).
	Llama270B     = model.Llama270B
	Chinchilla70B = model.Chinchilla70B
	Bloom176B     = model.Bloom176B
)

// WithCXL returns a copy of a system with n Samsung 128 GB CXL Type-3
// expanders installed (Table 2 uses two).
func WithCXL(sys System, n int) System {
	return sys.WithCXL(n, hw.SamsungCXL128)
}

// Systems lists the built-in evaluation platforms.
func Systems() []System {
	return []System{SPRA100, SPRH100, GNRA100, GNRH100, GH200, DGXA100}
}

// Models lists the built-in architectures.
func Models() []ModelConfig { return model.Catalog() }

// ModelByName looks up a built-in architecture ("OPT-175B", …).
func ModelByName(name string) (ModelConfig, error) { return model.ByName(name) }

// SystemByName looks up a built-in platform ("SPR-A100", …).
func SystemByName(name string) (System, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, errUnknownSystem(name)
}

// FrameworkByName looks up a framework by its name or a common alias,
// case-insensitively: "LIA", "IPEX", "FlexGen", "PowerInfer", "MultiGPU"
// (also "MultiGPU-TP8", "DGX") and "ZeRO" (also "ZeRO-Inference",
// "DeepSpeed"). Every Framework's String() resolves to itself.
func FrameworkByName(name string) (Framework, error) {
	switch strings.ToLower(name) {
	case "lia":
		return LIA, nil
	case "ipex":
		return IPEX, nil
	case "flexgen":
		return FlexGen, nil
	case "powerinfer":
		return PowerInfer, nil
	case "multigpu", "multigpu-tp8", "dgx":
		return MultiGPU, nil
	case "zero", "zero-inference", "deepspeed":
		return ZeROInference, nil
	default:
		return 0, fmt.Errorf("lia: unknown framework %q (want LIA, IPEX, FlexGen, PowerInfer, MultiGPU or ZeRO)", name)
	}
}

type errUnknownSystem string

func (e errUnknownSystem) Error() string { return "lia: unknown system \"" + string(e) + "\"" }

// Int8Variant returns a model with INT8 (1-byte) parameters: every
// operand transfer, KV-cache byte, and footprint in the analytical model
// halves. Pair with FunctionalExecutor.EnableINT8 for the numeric side.
func Int8Variant(m ModelConfig) ModelConfig { return m.Int8Variant() }

// LoadSystem reads a custom system description from a JSON file
// (optionally inheriting from a named built-in via "base"); see
// internal/hw/config.go for the schema.
func LoadSystem(path string) (System, error) { return hw.LoadSystem(path) }

// ParseSystem builds a custom system from JSON bytes.
func ParseSystem(data []byte) (System, error) { return hw.ParseSystem(data) }

// ModelsByNameMust is ModelByName for static example/tool code where the
// name is a known catalog constant; it panics on unknown names.
func ModelsByNameMust(name string) ModelConfig {
	m, err := ModelByName(name)
	if err != nil {
		panic(err)
	}
	return m
}
