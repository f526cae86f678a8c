package serve

import (
	"fmt"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/exec"
	"github.com/lia-sim/lia/internal/memplan"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// SimulateContinuous runs an iteration-level (Orca-style continuous
// batching) scheduler over the request stream: at every decode iteration
// the running batch admits newly-arrived requests (after a batched
// prefill) and retires finished ones immediately, instead of holding the
// whole batch until its longest member completes. Same Config and
// Metrics as Simulate, so the two disciplines compare directly.
//
// Every scheduling decision — FIFO admission with eager KV-block
// reservation, youngest-first preemption, immediate retirement — is made
// by the batchpolicy package, the exact same code the live serving
// gateway (internal/gateway) runs; the differential test in that package
// pins the two to identical admission/preemption/completion order.
//
// The per-iteration cost comes from the same execution back-end the
// engine uses (policy re-optimized per batch size, Optimization-1
// pinning, Optimization-2 overlap), evaluated at the running batch's
// mean context length — unless Config.StepCosts injects deterministic
// costs (the differential test's fake engine).
func SimulateContinuous(cfg Config, reqs []Request) (Metrics, error) {
	if err := cfg.check(reqs); err != nil {
		return Metrics{}, err
	}
	return simulateOn(cfg.machine(), reqs, cfg.OnEvent)
}

// machine is the one virtual machine SimulateContinuous serves on.
func (c Config) machine() ReplayConfig {
	return ReplayConfig{
		MaxBatch:      c.MaxBatch,
		Model:         c.Model,
		KVBudget:      c.KVBudget,
		KVBlockTokens: c.KVBlockTokens,
		Costs:         c.stepCosts(),
	}
}

// simulateOn serves reqs on one machine and folds its launches and
// outcomes into Metrics.
func simulateOn(rc ReplayConfig, reqs []Request, onEvent func(batchpolicy.Event)) (Metrics, error) {
	stream := make([]ReplayRequest, len(reqs))
	for i, r := range reqs {
		stream[i] = ReplayRequest{PromptLen: r.InputLen, OutputLen: r.OutputLen, Arrival: r.Arrival}
	}
	mach, err := NewMachine(rc)
	if err != nil {
		return Metrics{}, err
	}
	mach.OnEvent = onEvent

	// Every executed launch — prefill, prompt chunk or decode iteration —
	// is one batch weighted by the sequences it carried; a sequence's
	// first prefill launch also ends its queueing (again after a
	// preemption: the re-admission waited too).
	var (
		m        Metrics
		queueing []units.Seconds
	)
	mach.OnLaunch = func(prefill bool, batch []batchpolicy.Seq) {
		m.Batches++
		m.MeanBatchSize += float64(len(batch))
		if !prefill {
			m.GeneratedTokens += len(batch)
			return
		}
		for _, a := range batch {
			if !a.Prefilling() || a.Prefilled == 0 { // whole prompt, or first chunk
				queueing = append(queueing, mach.Clock-reqs[a.Item.Ref].Arrival)
			}
		}
	}
	res, _, err := Drive(stream, []*Machine{mach}, nil, nil)
	if err != nil {
		return Metrics{}, err
	}
	// Metrics has no shed outcome, and one machine sheds only a request
	// its pool can never hold.
	if res.Shed > 0 {
		return Metrics{}, fmt.Errorf("serve: KV budget %v cannot hold the next request", rc.KVBudget)
	}

	m.Makespan, m.Preemptions = res.Makespan, res.Preemptions
	latencies := make([]units.Seconds, 0, res.Completed)
	for _, r := range res.Requests {
		if r.Outcome == ReplayCompleted {
			latencies = append(latencies, r.Finish-r.Arrival)
		}
	}
	summarize(latencies, queueing, &m)
	return m, nil
}

// basePlan is the execution plan SimulateContinuous prices stages with before a per-shape policy is filled in: LIA's GPU memory
// plan at the batch cap (Optimization-1 pinning), overlap on
// (Optimization-2), one mini-batch.
func (c Config) basePlan() exec.Plan {
	gpuPlan := memplan.PlanLIAGPU(c.System.GPU, c.Model, c.MaxBatch, c.Model.MaxSeqLen)
	return exec.Plan{
		Env:          core.NewEnvWithPlacement(c.System, c.Model, c.Placement),
		Opt:          core.Options{KVOnGPU: gpuPlan.KVOnGPU},
		Layers:       c.Model.Layers,
		PinnedLayers: gpuPlan.PinnedLayers,
		Overlap:      true,
		MiniBatches:  1,
	}
}

// stepCosts returns the machine's engine: the injected StepCosts when
// present (the differential test's deterministic fake engine), else the
// analytic execution back-end through the process-wide step cache
// (stepcost.go).
func (c Config) stepCosts() *StepCosts {
	if c.StepCosts != nil {
		return c.StepCosts
	}
	basePlan := c.basePlan()
	return &StepCosts{
		Decode: func(b, l int) (units.Seconds, error) {
			return decodeStepCost(basePlan, b, l)
		},
		Prefill: func(b, l int) (units.Seconds, error) {
			pol, _ := core.OptimizeOptsCached(basePlan.Env, model.Prefill, b, l, basePlan.Opt)
			p := basePlan
			p.Policy = pol
			if b > 1 {
				p.MiniBatches = 2
			}
			return stageCost(p, model.Prefill, b, l)
		},
	}
}
