package engine

import (
	"reflect"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/exec"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
)

// TestPolicyCandidates: a seed that is one of the canonical policies is
// listed once, first; the others follow in their fixed order.
func TestPolicyCandidates(t *testing.T) {
	odd := core.Policy{true, false, false, false, false, true}
	for _, tc := range []struct {
		seed core.Policy
		want []core.Policy
	}{
		{core.FullCPU, []core.Policy{core.FullCPU, core.FullGPU, core.PartialCPU}},
		{core.FullGPU, []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU}},
		{core.PartialCPU, []core.Policy{core.PartialCPU, core.FullCPU, core.FullGPU}},
		{odd, []core.Policy{odd, core.FullCPU, core.FullGPU, core.PartialCPU}},
	} {
		if got := policyCandidates(tc.seed); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("seed %s: candidates %v, want %v", tc.seed, got, tc.want)
		}
	}
}

// TestPickPolicyMatchesFullList: selection over the de-duplicated
// candidates picks what costing the full list {seed, FullCPU, FullGPU,
// PartialCPU} picks — first strict minimum, so ties go to the earlier
// entry — and the timing it returns is the stage run again under the
// winner.
func TestPickPolicyMatchesFullList(t *testing.T) {
	seeds := map[core.Policy]int{}
	for _, sys := range []hw.System{hw.SPRA100, hw.GNRH100, hw.GH200} {
		for _, m := range []model.Config{model.OPT30B, model.OPT175B} {
			// A GPU-resident KV cache (which pinning brings with it) is what
			// moves the seed off the canonical three.
			for _, pinned := range []int{0, m.Layers / 3} {
				for _, overlap := range []bool{false, true} {
					for _, stage := range []model.Stage{model.Prefill, model.Decode} {
						for _, bl := range [][2]int{{1, 512}, {16, 128}, {64, 528}, {256, 272}, {900, 2048}} {
							plan := exec.Plan{
								Env:          core.NewEnv(sys, m),
								Opt:          core.Options{KVOnGPU: pinned > 0},
								Layers:       m.Layers,
								PinnedLayers: pinned,
								Overlap:      overlap,
								MiniBatches:  1,
							}
							if stage == model.Prefill && overlap && bl[0] > 1 {
								plan.MiniBatches = 2
							}
							seed, _ := core.OptimizeOpts(plan.Env, stage, bl[0], bl[1], plan.Opt)
							seeds[seed]++
							var want core.Policy
							var wantRes exec.StageResult
							for i, p := range []core.Policy{seed, core.FullCPU, core.FullGPU, core.PartialCPU} {
								ref := plan
								ref.Policy = p
								res, err := ref.RunStage(stage, bl[0], bl[1])
								if err != nil {
									t.Fatal(err)
								}
								if i == 0 || res.Latency < wantRes.Latency {
									want, wantRes = p, res
								}
							}
							got, gotRes, err := pickPolicy(plan, stage, bl[0], bl[1])
							if err != nil {
								t.Fatal(err)
							}
							if got != want || gotRes != wantRes {
								t.Errorf("%s %s pinned %d overlap %v %v %v: picked %s %+v, want %s %+v",
									sys.Name, m.Name, pinned, overlap, stage, bl, got, gotRes, want, wantRes)
							}
						}
					}
				}
			}
		}
	}
	canonical := seeds[core.FullCPU] + seeds[core.FullGPU] + seeds[core.PartialCPU]
	total := 0
	for _, n := range seeds {
		total += n
	}
	if canonical == 0 || canonical == total {
		t.Errorf("%d of %d seeds are canonical; the grid should cover both kinds", canonical, total)
	}
}

// TestForcedPolicyIsTheSelectedOneWhenTheyAgree: where selection picks
// one policy for both stages, forcing that policy — which skips selection
// — changes nothing in the result.
func TestForcedPolicyIsTheSelectedOneWhenTheyAgree(t *testing.T) {
	cfg := Config{Framework: LIA, System: hw.GH200, Model: model.OPT175B, Workload: wl(4, 512, 32)}
	selected := mustFit(t, cfg)
	if selected.PrefillPolicy != selected.DecodePolicy {
		t.Fatalf("selection picked %s / %s; the test needs a cell where they agree", selected.PrefillPolicy, selected.DecodePolicy)
	}
	cfg.Ablation.ForcePolicy = &selected.PrefillPolicy
	forced := mustFit(t, cfg)
	forced.Config = selected.Config
	if !reflect.DeepEqual(forced, selected) {
		t.Errorf("forced:\n%+v\nselected:\n%+v", forced, selected)
	}
	// And a forced policy that selection would not pick is still obeyed.
	cfg.Ablation.ForcePolicy = &core.PartialCPU
	if forced := mustFit(t, cfg); forced.PrefillPolicy != core.PartialCPU || forced.DecodePolicy != core.PartialCPU {
		t.Errorf("forced policies = %s / %s, want %s", forced.PrefillPolicy, forced.DecodePolicy, core.PartialCPU)
	}
}
