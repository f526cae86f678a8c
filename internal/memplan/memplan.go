// Package memplan decides where model state lives: how many whole decoder
// layers LIA pins in otherwise-idle GPU memory (Optimization-1, §5.2),
// which sublayer columns FlexGen pins instead, whether the KV cache fits
// on the GPU at all, how host memory splits between DDR and CXL under the
// §6 policy, and the largest batch a given memory budget admits.
package memplan

import (
	"errors"
	"fmt"

	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// GPUPlan describes how GPU memory is used while streaming a model.
type GPUPlan struct {
	// PinnedLayers is the number of whole decoder layers whose parameters
	// stay resident (LIA's granularity). Zero for FlexGen-style plans.
	PinnedLayers int
	// PinnedParamFraction is the fraction of all decoder-layer parameter
	// bytes resident on the GPU (layers/N for LIA; the packed column
	// fraction for FlexGen).
	PinnedParamFraction float64
	// KVOnGPU reports whether the entire KV cache (at maximum context)
	// also fits in GPU memory, eliminating decode KV transfers.
	KVOnGPU bool
	// Used is the planned GPU memory consumption.
	Used units.Bytes
	// Capacity is the GPU's total memory.
	Capacity units.Bytes
}

// streamingReserve is the GPU memory a streaming framework needs
// regardless of pinning: double-buffered parameters for the current and
// next layer, plus the layer's activation working set.
func streamingReserve(m model.Config, b, l int) units.Bytes {
	return 2*m.LayerParamBytes() + m.ActivationBytes(b, l, model.Prefill)
}

// PlanLIAGPU implements Optimization-1: pin *all sublayers of as many
// decoder layers as possible* in the unused GPU memory. The KV cache
// moves on-GPU too when the remaining space holds it at maximum context
// length lMax.
func PlanLIAGPU(g hw.GPUSpec, m model.Config, b, lMax int) GPUPlan {
	plan := GPUPlan{Capacity: g.MemCapacity}
	budget := g.MemCapacity - streamingReserve(m, b, lMax)
	if budget < 0 {
		budget = 0
	}
	// KV first: a GPU-resident cache removes per-token PCIe traffic, which
	// dominates at small B (the B=1 online case).
	kv := m.KVBytes(b, lMax)
	if kv <= budget {
		plan.KVOnGPU = true
		budget -= kv
		plan.Used += kv
	}
	layer := m.LayerParamBytes()
	if layer > 0 {
		n := int(budget / layer)
		if n > m.Layers {
			n = m.Layers
		}
		plan.PinnedLayers = n
		plan.PinnedParamFraction = float64(n) / float64(m.Layers)
		plan.Used += units.Bytes(n) * layer
	}
	plan.Used += streamingReserve(m, b, lMax)
	if plan.Used > plan.Capacity {
		plan.Used = plan.Capacity
	}
	return plan
}

// paramColumns returns the per-sublayer parameter column sizes across all
// layers (FlexGen's pinning granularity: one sublayer of *all* decoder
// layers).
func paramColumns(m model.Config) []units.Bytes {
	var cols []units.Bytes
	for _, s := range model.Sublayers() {
		if s == model.QKT || s == model.SV {
			continue
		}
		cols = append(cols, m.DataY(model.Prefill, s, 1, 1)*units.Bytes(m.Layers))
	}
	return cols
}

// PlanFlexGenGPU models FlexGen's coarser placement: it pins whole
// sublayer columns (e.g. "FC1 of every layer"), greedily packing the
// largest columns that fit. The coarse granularity strands capacity that
// LIA's per-layer granularity uses (§5.2's 62% vs 58% example).
func PlanFlexGenGPU(g hw.GPUSpec, m model.Config, b, lMax int) GPUPlan {
	plan := GPUPlan{Capacity: g.MemCapacity}
	budget := g.MemCapacity - streamingReserve(m, b, lMax)
	if budget < 0 {
		budget = 0
	}
	kv := m.KVBytes(b, lMax)
	if kv <= budget {
		plan.KVOnGPU = true
		budget -= kv
		plan.Used += kv
	}
	total := m.LayerParamBytes() * units.Bytes(m.Layers)
	var pinned units.Bytes
	// Greedy largest-first packing of whole columns.
	cols := paramColumns(m)
	for {
		bestIdx := -1
		var best units.Bytes
		for i, c := range cols {
			if c > 0 && c <= budget && c > best {
				best = c
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		pinned += best
		budget -= best
		cols[bestIdx] = 0
	}
	if total > 0 {
		plan.PinnedParamFraction = float64(pinned) / float64(total)
	}
	plan.Used += pinned + streamingReserve(m, b, lMax)
	if plan.Used > plan.Capacity {
		plan.Used = plan.Capacity
	}
	return plan
}

// HostPlan describes host-side (CPU) memory consumption.
type HostPlan struct {
	// DDRUsed and CXLUsed split the footprint across tiers.
	DDRUsed, CXLUsed units.Bytes
	// DDRCapacity and CXLCapacity are the installed capacities.
	DDRCapacity, CXLCapacity units.Bytes
	// Fits reports whether both tiers hold their assignments.
	Fits bool
	// OffloadedFraction is CXLUsed / (DDRUsed + CXLUsed) — Table 3's
	// "Offloaded Percentage".
	OffloadedFraction float64
}

// ErrNoCXL reports a placement that sends data classes to CXL on a system
// with no expanders installed — a configuration error, not a capacity
// shortfall (there is no tier to be short of).
var ErrNoCXL = errors.New("memplan: placement requires CXL but no expanders are installed")

// validateHostInputs rejects the degenerate shapes that used to produce
// silently wrong plans: non-positive batch or context (negative KV and
// activation bytes), an invalid model, and CXL placements without CXL.
func validateHostInputs(sys hw.System, m model.Config, b, lTotal int, pl cxl.Placement) error {
	if b < 1 {
		return fmt.Errorf("memplan: batch must be ≥1, got %d", b)
	}
	if lTotal < 1 {
		return fmt.Errorf("memplan: context length must be ≥1, got %d", lTotal)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("memplan: %w", err)
	}
	if sys.CXLCapacity() == 0 {
		for _, class := range []cxl.DataClass{cxl.Parameters, cxl.KVCache, cxl.Activations} {
			if pl.Holds(class) {
				return fmt.Errorf("%w (%s)", ErrNoCXL, class)
			}
		}
	}
	return nil
}

// PlanHost places the model's host-resident state (parameters, KV cache
// at full context, activations) across DDR and CXL under a placement
// policy. lTotal should be the maximum context length (L_in + L_out).
// Degenerate inputs (batch or context < 1, invalid model, CXL placement
// without expanders) return an error instead of a garbage plan.
func PlanHost(sys hw.System, m model.Config, b, lTotal int, pl cxl.Placement) (HostPlan, error) {
	if err := validateHostInputs(sys, m, b, lTotal, pl); err != nil {
		return HostPlan{}, err
	}
	plan := HostPlan{
		DDRCapacity: sys.CPU.DRAMCapacity,
		CXLCapacity: sys.CXLCapacity(),
	}
	place := func(class cxl.DataClass, bytes units.Bytes) {
		if pl.Holds(class) {
			plan.CXLUsed += bytes
		} else {
			plan.DDRUsed += bytes
		}
	}
	place(cxl.Parameters, m.ParamBytes())
	place(cxl.KVCache, m.KVBytes(b, lTotal))
	place(cxl.Activations, m.ActivationBytes(b, lTotal, model.Prefill))
	plan.Fits = plan.DDRUsed <= plan.DDRCapacity && plan.CXLUsed <= plan.CXLCapacity
	if total := plan.DDRUsed + plan.CXLUsed; total > 0 {
		plan.OffloadedFraction = float64(plan.CXLUsed) / float64(total)
	}
	return plan, nil
}

// MaxBatch returns the largest batch size whose host footprint fits under
// the placement, searching up to limit. Returns 0 when even B=1 does not
// fit, and an error for degenerate inputs (limit or context < 1, invalid
// model, CXL placement without expanders).
func MaxBatch(sys hw.System, m model.Config, lTotal, limit int, pl cxl.Placement) (int, error) {
	if limit < 1 {
		return 0, fmt.Errorf("memplan: batch search limit must be ≥1, got %d", limit)
	}
	if err := validateHostInputs(sys, m, 1, lTotal, pl); err != nil {
		return 0, err
	}
	lo, hi := 0, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		p, err := PlanHost(sys, m, mid, lTotal, pl)
		if err != nil {
			return 0, err
		}
		if p.Fits {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// MaxBatchWithinDDR returns the largest batch whose *DDR* usage stays
// within ddrBudget (and whose CXL usage fits the installed expanders)
// under the placement — Table 3's "same DDR memory footprint" comparison:
// offloading parameters to CXL frees DDR for more KV cache, admitting a
// larger B. Degenerate inputs error exactly as in MaxBatch.
func MaxBatchWithinDDR(sys hw.System, m model.Config, lTotal int, ddrBudget units.Bytes, limit int, pl cxl.Placement) (int, error) {
	if limit < 1 {
		return 0, fmt.Errorf("memplan: batch search limit must be ≥1, got %d", limit)
	}
	if err := validateHostInputs(sys, m, 1, lTotal, pl); err != nil {
		return 0, err
	}
	lo, hi := 0, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		p, err := PlanHost(sys, m, mid, lTotal, pl)
		if err != nil {
			return 0, err
		}
		if p.DDRUsed <= ddrBudget && p.CXLUsed <= p.CXLCapacity {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// GPUFits reports whether a fully GPU-resident deployment (no offloading)
// of the model at the workload shape fits in nGPUs × capacity — the
// multi-GPU OOM check of §7.8.
func GPUFits(g hw.GPUSpec, nGPUs int, m model.Config, b, lTotal int) bool {
	need := m.ParamBytes() + m.KVBytes(b, lTotal) + m.ActivationBytes(b, lTotal, model.Prefill)
	return need <= g.MemCapacity*units.Bytes(nGPUs)
}

// String summarizes a GPU plan.
func (p GPUPlan) String() string {
	return fmt.Sprintf("pinned %d layers (%.0f%% of params), KV-on-GPU=%v, %s/%s used",
		p.PinnedLayers, 100*p.PinnedParamFraction, p.KVOnGPU, p.Used, p.Capacity)
}

// String summarizes a host plan.
func (p HostPlan) String() string {
	return fmt.Sprintf("DDR %s/%s, CXL %s/%s, fits=%v, offloaded=%.1f%%",
		p.DDRUsed, p.DDRCapacity, p.CXLUsed, p.CXLCapacity, p.Fits, 100*p.OffloadedFraction)
}
