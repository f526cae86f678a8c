package engine

import (
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/exec"
	"github.com/lia-sim/lia/internal/memplan"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// runLIA executes the full LIA stack: the §5.1 optimizer picks per-stage
// policies, Optimization-1 pins decoder layers (and, when it fits, the KV
// cache) in GPU memory, and Optimization-2 overlaps transfers with
// compute; prefill splits the batch into two mini-batches, decode runs
// whole-batch (§5.2).
func runLIA(cfg Config) (Result, error) {
	var r Result
	w := cfg.Workload
	m := cfg.Model

	plan, oom, reason := hostPlanFor(cfg)
	if oom {
		return Result{OOM: true, OOMReason: reason}, nil
	}
	r.HostPlan = plan

	// §8's multi-GPU extension: with n GPUs, the GPU side of the policy
	// runs tensor-parallel — aggregate capacity, bandwidth, and compute,
	// n concurrent PCIe links, plus per-layer all-reduces charged by the
	// latency equations.
	sys := cfg.System
	nGPU := sys.GPUCount
	if nGPU > 1 {
		sys.GPU.MemCapacity *= units.Bytes(nGPU)
		sys.GPU.MemBW *= units.BytesPerSecond(nGPU)
		sys.GPU.HostLink.BW *= units.BytesPerSecond(nGPU)
	}

	gpuPlan := memplan.GPUPlan{Capacity: sys.GPU.MemCapacity}
	if !cfg.Ablation.NoOpt1 {
		gpuPlan = memplan.PlanLIAGPU(sys.GPU, m, w.Batch, w.InputLen+w.OutputLen)
	}
	r.PinnedLayers = gpuPlan.PinnedLayers
	r.KVOnGPU = gpuPlan.KVOnGPU

	env := core.NewEnvWithPlacement(sys, m, cfg.Placement)
	if nGPU > 1 {
		// Aggregate the calibrated compute ceiling across ranks (the spec
		// multipliers above only cover memory and links).
		env.GPU.Ceiling *= units.FLOPSRate(float64(nGPU))
		env.GPU.Peak *= units.FLOPSRate(float64(nGPU))
	}
	opt := core.Options{KVOnGPU: gpuPlan.KVOnGPU}
	if nGPU > 1 {
		opt.TPGPUs = nGPU
		opt.TPPeer = cfg.System.GPU.PeerLink
		if opt.TPPeer.BW <= 0 {
			// PCIe-attached cluster: peers reduce over the host links.
			opt.TPPeer = cfg.System.GPU.HostLink
		}
	}

	overlap := !cfg.Ablation.NoOpt2
	prefillMB := 1
	if overlap && w.Batch > 1 {
		prefillMB = 2
	}

	// The stage plans differ only in policy and mini-batch count: prefill
	// splits the batch, decode never does (§5.2).
	prefillPlan := exec.Plan{
		Env:          env,
		Opt:          opt,
		Layers:       m.Layers,
		PinnedLayers: gpuPlan.PinnedLayers,
		Overlap:      overlap,
		MiniBatches:  prefillMB,
	}
	decodePlan := prefillPlan
	decodePlan.MiniBatches = 1

	var pre exec.StageResult
	var err error
	if force := cfg.Ablation.ForcePolicy; force != nil {
		// A forced policy leaves nothing to select.
		prefillPlan.Policy, decodePlan.Policy = *force, *force
		pre, err = prefillPlan.RunStage(model.Prefill, w.Batch, w.InputLen)
	} else {
		// Selecting the prefill policy runs the prefill stage under it. The
		// decode policy depends only on B (§7.1), evaluated at the mid-run
		// context length.
		prefillPlan.Policy, pre, err = pickPolicy(prefillPlan, model.Prefill, w.Batch, w.InputLen)
		if err == nil {
			decodePlan.Policy, _, err = pickPolicy(decodePlan, model.Decode, w.Batch, w.InputLen+w.OutputLen/2)
		}
	}
	if err != nil {
		return Result{}, err
	}
	r.PrefillPolicy = prefillPlan.Policy
	r.DecodePolicy = decodePlan.Policy
	r.PrefillLatency = pre.Latency
	r.Breakdown = Breakdown{CPU: pre.CPUBusy, GPU: pre.GPUBusy, Comm: pre.CommBusy}

	dec, err := decodePlan.RunDecodeSequence(w.Batch, w.InputLen, w.OutputLen)
	if err != nil {
		return Result{}, err
	}
	r.DecodeLatency = dec.Latency
	r.Breakdown.CPU += dec.CPUBusy
	r.Breakdown.GPU += dec.GPUBusy
	r.Breakdown.Comm += dec.CommBusy
	return r, nil
}

// pickPolicy is policy selection (C1): the Eq. (2) optimum seeds a small
// candidate set that is then costed on the actual execution back-end —
// plan's schedule, with Optimization-1 pinning and Optimization-2 overlap
// — because overlap can hide transfer time the closed-form model counts
// in full. It returns the fastest candidate and the stage's timing under
// it; plan.Policy is ignored.
func pickPolicy(plan exec.Plan, stage model.Stage, b, l int) (core.Policy, exec.StageResult, error) {
	seed, _ := core.OptimizeOpts(plan.Env, stage, b, l, plan.Opt)
	var best core.Policy
	var bestRes exec.StageResult
	for i, p := range policyCandidates(seed) {
		plan.Policy = p
		res, err := plan.RunStage(stage, b, l)
		if err != nil {
			return core.Policy{}, exec.StageResult{}, err
		}
		if i == 0 || res.Latency < bestRes.Latency {
			best, bestRes = p, res
		}
	}
	return best, bestRes, nil
}

// policyCandidates lists the policies selection costs: the Eq. (2) seed,
// then the three canonical policies it is checked against. The seed is
// usually one of the three (small-batch decode seeds FullCPU, prefill
// FullGPU) and is then costed once, in its first position, so ties
// resolve as they would over the full list.
func policyCandidates(seed core.Policy) []core.Policy {
	candidates := []core.Policy{seed}
	for _, p := range [...]core.Policy{core.FullCPU, core.FullGPU, core.PartialCPU} {
		if p != seed {
			candidates = append(candidates, p)
		}
	}
	return candidates
}
