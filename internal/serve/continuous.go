package serve

import (
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
	stream := make([]ReplayRequest, len(reqs))
	for i, r := range reqs {
		stream[i] = ReplayRequest{PromptLen: r.InputLen, OutputLen: r.OutputLen, Arrival: r.Arrival}
	}
	led, err := NewLedger(stream)
	if err != nil {
		return Metrics{}, err
	}
	mach, err := NewMachine(ReplayConfig{
		MaxBatch:      cfg.MaxBatch,
		Model:         cfg.Model,
		KVBudget:      cfg.KVBudget,
		KVBlockTokens: cfg.KVBlockTokens,
		Costs:         cfg.stepCosts(),
	}, led)
	if err != nil {
		return Metrics{}, err
	}
	mach.OnEvent = cfg.OnEvent

	// Every executed launch — prefill or decode iteration — is one batch
	// weighted by the sequences it carried; a prefill also ends its
	// sequences' queueing (again after a preemption: the re-admission
	// waited too).
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
			queueing = append(queueing, mach.Clock-reqs[a.Item.Ref].Arrival)
		}
	}
	if err := mach.Run(); err != nil {
		return Metrics{}, err
	}

	m.Makespan, m.Preemptions = led.Makespan, led.Preemptions
	latencies := make([]units.Seconds, 0, led.Completed)
	for _, r := range led.Requests {
		if r.Outcome == ReplayCompleted {
			latencies = append(latencies, r.Finish-r.Arrival)
		}
	}
	summarize(latencies, queueing, &m)
	return m, nil
}

// basePlan is the execution plan the iteration-level simulators price
// stages with before a per-shape policy is filled in: LIA's GPU memory
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
