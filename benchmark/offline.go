package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/offload"
)

// benchSmall is the kernel-bound model of offline_tiers: wide enough
// that parameter GEMMs, not Go call overhead, dominate a decode step.
var benchSmall = model.Config{
	Name: "bench-small", Layers: 2, DModel: 128, Heads: 4, KVHeads: 4,
	DFF: 512, VocabSize: 256, MaxSeqLen: 256, BytesPerParam: 2, Experts: 1,
}

const (
	offlineBatch  = 8
	offlinePrompt = 16
	offlineOut    = 32
	offlineTokens = offlineBatch * offlineOut // generated per GenerateBatch call
)

// tierExec is one offline_tiers executor.
type tierExec struct {
	name      string
	exec      *llm.Executor
	host      *offload.Host // cxl tier only
	firstCall time.Duration
}

// offloadHost builds the tiered-memory runtime of the cxl and ddr
// probes over a laptop-scale system that pins one decoder layer.
func offloadHost(cfg model.Config, nCXL int, placement cxl.Placement, pol core.Policy) (*offload.Host, error) {
	const pinned, ctx = 1, 256
	plan, err := offload.NewPlan(offload.Config{
		System: offload.TinySystem(cfg, 1, ctx, pinned, nCXL), Model: cfg,
		Batch: 1, Context: ctx, Placement: placement,
	})
	if err != nil {
		return nil, err
	}
	return offload.NewHost(plan, pol)
}

// buildTier is one tier's cold set-up: weights, the tier's quantise /
// prune / host step, and a first call that builds every packed image.
func buildTier(name string, warm [][]int) (*tierExec, error) {
	m, err := llm.NewRandom(benchSmall, liveWeights)
	if err != nil {
		return nil, err
	}
	t := &tierExec{name: name}
	switch name {
	case "dense_cpu":
		t.exec = llm.NewExecutor(m, core.FullCPU)
	case "dense_gpu":
		t.exec = llm.NewExecutor(m, core.FullGPU)
	case "int8":
		t.exec = llm.NewExecutor(m, core.FullCPU)
		t.exec.EnableINT8()
	case "sparse":
		t.exec = llm.NewExecutor(m, core.FullCPU)
		t.exec.EnableSparse(0.5)
	case "int4":
		t.exec = llm.NewExecutor(m, core.FullCPU)
		t.exec.EnableINT4LUT(0)
	case "cxl":
		t.exec = llm.NewExecutor(m, core.PartialCPU)
		if t.host, err = offloadHost(benchSmall, 1, cxl.PolicyPlacement(), core.PartialCPU); err != nil {
			return nil, err
		}
		t.exec.Mem = t.host
	default:
		return nil, fmt.Errorf("unknown tier %q", name)
	}
	start := time.Now()
	if _, err := t.exec.GenerateBatch(warm, 2); err != nil {
		t.close()
		return nil, err
	}
	t.firstCall = time.Since(start)
	return t, nil
}

func (t *tierExec) close() {
	if t.host != nil {
		t.host.Close()
	}
}

func buildTiers(warm [][]int) ([]*tierExec, error) {
	var out []*tierExec
	for _, name := range tiers {
		t, err := buildTier(name, warm)
		if err != nil {
			closeTiers(out)
			return nil, fmt.Errorf("tier %s: %w", name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func closeTiers(ts []*tierExec) {
	for _, t := range ts {
		t.close()
	}
}

// offlinePrompts generates the batch every call decodes.
func offlinePrompts(seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, offlineBatch)
	for i := range out {
		out[i] = randomPrompt(rng, offlinePrompt, benchSmall.VocabSize)
	}
	return out
}

func runOffline(rc *runCtx, rep *report) error {
	prompts := offlinePrompts(rc.seed)
	var ts []*tierExec
	setup, err := rc.timeSetups(func() (err error) {
		ts, err = buildTiers(prompts)
		return err
	}, func() error { closeTiers(ts); return nil })
	if err != nil {
		return err
	}
	defer closeTiers(ts)
	if rc.traced {
		return tracedOffline(rc, rep, ts, prompts)
	}
	rep.setSample("setup_s", setup)

	// Round-robin over the tiers so host noise spreads evenly.
	rates := make([]sample, len(ts)) // tokens per second of each call
	outputs := make([][][]int, len(ts))
	calls, failed := 0, 0
	for start := time.Now(); time.Since(start) < rc.duration; {
		for i, t := range ts {
			t0 := time.Now()
			out, err := t.exec.GenerateBatch(prompts, offlineOut)
			rates[i] = append(rates[i], offlineTokens/time.Since(t0).Seconds())
			calls++
			if err != nil {
				failed++
				rep.fail("%s: GenerateBatch: %v", t.name, err)
				continue
			}
			if outputs[i] == nil {
				outputs[i] = out
			} else if !equalBatches(outputs[i], out) {
				failed++
				rep.fail("%s: tokens changed between calls", t.name)
			}
		}
	}
	rep.phase("calls", calls, calls-failed, failed)
	checkOfflineTokens(rep, outputs)
	for i, t := range ts {
		rep.setSample(tierMetric(t.name), rates[i])
	}
	rep.headlineRate = median(rates[0])
	rep.headlineTime = offlineTokens / rep.headlineRate
	return nil
}

// checkOfflineTokens is the offline correctness check: every call
// returned the asked token counts, and the three BF16 routes — AMX,
// dense, and the CXL-hosted executor — produced identical tokens.
func checkOfflineTokens(rep *report, outputs [][][]int) {
	for i, out := range outputs {
		if len(out) != offlineBatch {
			rep.fail("%s: %d sequences returned, want %d", tiers[i], len(out), offlineBatch)
			continue
		}
		for _, seq := range out {
			if len(seq) != offlineOut {
				rep.fail("%s: %d tokens returned, want %d", tiers[i], len(seq), offlineOut)
			}
		}
	}
	idx := map[string]int{}
	for i, t := range tiers {
		idx[t] = i
	}
	for _, t := range []string{"dense_gpu", "cxl"} {
		if !equalBatches(outputs[idx["dense_cpu"]], outputs[idx[t]]) {
			rep.fail("dense_cpu and %s tokens differ", t)
		}
	}
}

func equalBatches(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
