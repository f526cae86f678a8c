package serve

import (
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/exec"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/runner"
	"github.com/lia-sim/lia/internal/units"
)

// ctxBucket quantizes context lengths for iteration-cost lookups: policies
// and per-step costs change slowly along the context axis, so all lengths
// in a 64-token bucket share one optimizer call and one cost evaluation.
const ctxBucket = 64

// bucketCtx maps a context length to its bucket representative (the
// bucket floor, clamped to ≥1). Both the policy and the cost are
// evaluated at this representative, which makes the cached value a pure
// function of the bucket — unlike a first-length-seen cache, the result
// cannot depend on the order the simulator visits context lengths.
func bucketCtx(l int) int {
	q := l / ctxBucket * ctxBucket
	if q < 1 {
		q = 1
	}
	return q
}

// stepKey identifies one stage execution. exec.Plan is a flat comparable
// struct (Env, Policy, Options, layer counts, flags), so the full plan
// participates in the key and simulators with different placements or
// pinning never share entries.
type stepKey struct {
	plan  exec.Plan
	stage model.Stage
	b, l  int
}

// stepCache memoizes per-iteration stage costs process-wide. The serving
// simulators ask for the same (plan, stage, shape) points thousands of
// times per run and across runs of the same configuration; RunStage is a
// pure function of those inputs, so memoization is exact and the cache is
// shared by every simulator (single-flight under concurrent simulations).
var stepCache runner.Cache[stepKey, units.Seconds]

// stageCost runs one stage through the shared memoization cache.
func stageCost(p exec.Plan, stage model.Stage, b, l int) (units.Seconds, error) {
	return stepCache.Do(stepKey{plan: p, stage: stage, b: b, l: l}, func() (units.Seconds, error) {
		res, err := p.RunStage(stage, b, l)
		if err != nil {
			return 0, err
		}
		return res.Latency, nil
	})
}

// decodeStepCost optimizes the decode policy for the bucketed context and
// returns the memoized per-iteration cost.
func decodeStepCost(base exec.Plan, b, l int) (units.Seconds, error) {
	lq := bucketCtx(l)
	pol, _ := core.OptimizeOptsCached(base.Env, model.Decode, b, lq, base.Opt)
	p := base
	p.Policy = pol
	return stageCost(p, model.Decode, b, lq)
}

// ResetStepCache drops every memoized stage cost (tests that mutate
// shared hardware or model tables in place).
func ResetStepCache() { stepCache.Reset() }
