package offload

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// goldenPath is the llm package's invariance corpus: the tokens the seed
// implementation generated for every policy × precision × architecture.
const goldenPath = "../llm/testdata/golden_tokens.json"

func goldenKey(cfg string, p core.Policy, int8 bool) string {
	mode := "bf16"
	if int8 {
		mode = "int8"
	}
	return fmt.Sprintf("%s/%s/%s", cfg, p, mode)
}

// TestHostedExecutorGoldenInvariance is the tentpole differential test:
// an executor whose weights and KV cache live in the tiered runtime must
// emit tokens bit-identical to the resident executor across the full
// invariance corpus — the hooks observe, they never touch the math.
func TestHostedExecutorGoldenInvariance(t *testing.T) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden corpus: %v", err)
	}
	var golden map[string][]int
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}

	optM, err := llm.NewRandom(llm.TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	llamaM, err := llm.NewRandom(llm.TinyLlamaConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	archs := []struct {
		name   string
		m      *llm.Model
		cfg    model.Config
		prompt []int
		ctx    int
		pinned int
	}{
		// tiny-opt pins one layer (Opt-1 active: pinned + streamed mix,
		// ctx 256 so host-side KV outweighs a layer); tiny-llama streams
		// both layers.
		{"tiny-opt", optM, llm.TinyConfig(), []int{5, 17, 42, 9, 63}, 256, 1},
		{"tiny-llama", llamaM, llm.TinyLlamaConfig(), []int{9, 33, 71}, 128, 0},
	}
	policies := core.AllPolicies()
	if testing.Short() {
		policies = []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU, core.MoEPartial}
	}
	for _, a := range archs {
		// Host over a CXL-equipped tiny system under the §6 policy, so the
		// differential covers the full tier spread (HBM pin, CXL params,
		// DDR KV).
		sys := TinySystem(a.cfg, 1, a.ctx, a.pinned, 1)
		plan, err := NewPlan(Config{System: sys, Model: a.cfg, Batch: 1, Context: a.ctx, Placement: cxl.PolicyPlacement()})
		if err != nil {
			t.Fatal(err)
		}
		if plan.GPU.PinnedLayers != a.pinned {
			t.Fatalf("%s: plan pinned %d layers, test wants %d", a.name, plan.GPU.PinnedLayers, a.pinned)
		}
		for _, p := range policies {
			for _, int8Mode := range []bool{false, true} {
				key := goldenKey(a.name, p, int8Mode)
				want, ok := golden[key]
				if !ok {
					t.Fatalf("golden corpus missing %s", key)
				}
				h, err := NewHost(plan, p)
				if err != nil {
					t.Fatal(err)
				}
				e := llm.NewExecutor(a.m, p)
				e.Mem = h
				if int8Mode {
					e.EnableINT8()
				}
				got, err := e.Generate(a.prompt, 12)
				if err != nil {
					h.Close()
					t.Fatalf("%s: %v", key, err)
				}
				if !reflect.DeepEqual(got, want) {
					h.Close()
					t.Fatalf("%s: tiered hosting changed the tokens:\n got %v\nwant %v", key, got, want)
				}
				s := h.Snapshot()
				h.Close()
				if s.Prefills != 1 || s.Decodes != 11 {
					t.Fatalf("%s: host observed prefills=%d decodes=%d, want 1/11", key, s.Prefills, s.Decodes)
				}
				if s.LastPass.Makespan <= 0 {
					t.Fatalf("%s: virtual clock never advanced", key)
				}
			}
		}
	}
}

// TestLayerStreamTimeMatchesAnalytic pins the virtual clock's per-layer
// parameter-stream time against the analytic engine's per-sublayer D_Y
// loads (core's Eq. 3–7 transfer terms) within 5% on OPT-30B-class
// shapes, for DDR-sourced and CXL-sourced streaming.
func TestLayerStreamTimeMatchesAnalytic(t *testing.T) {
	cases := []struct {
		name string
		sys  hw.System
		pl   cxl.Placement
	}{
		{"ddr-streamed", hw.SPRA100, cxl.DDROnlyPlacement()},
		{"cxl-1-streamed", hw.SPRA100.WithCXL(1, hw.SamsungCXL128), cxl.PolicyPlacement()},
		{"cxl-2-streamed", hw.SPRA100.WithCXL(2, hw.SamsungCXL128), cxl.PolicyPlacement()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := NewPlan(Config{System: tc.sys, Model: model.OPT30B, Batch: 1, Context: 544, Placement: tc.pl})
			if err != nil {
				t.Fatal(err)
			}
			if plan.StreamedLayers() == 0 {
				t.Fatal("OPT-30B should not fit entirely in A100 HBM")
			}
			h, err := NewHost(plan, core.FullGPU)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			env := core.NewEnvWithPlacement(tc.sys, model.OPT30B, tc.pl)
			_, parts := core.LayerLatencyOpts(env, model.Decode, core.FullGPU, 1, 512, core.Options{})
			var analytic units.Seconds
			for _, s := range paramSublayers {
				analytic += parts[s].Load
			}
			got := h.layerStreamCost
			rel := math.Abs(float64(got-analytic)) / float64(analytic)
			if rel > 0.05 {
				t.Errorf("virtual stream time %v vs analytic D_Y load %v: %.1f%% apart, want ≤5%%",
					got, analytic, 100*rel)
			}
		})
	}
}

// TestHostedParallelSequences runs continuous-batched decoding over a
// hosted executor — the -race configuration exercising the prefetch
// worker, the shared page table, and per-fork pass hooks concurrently —
// and checks the streams still match solo generation.
func TestHostedParallelSequences(t *testing.T) {
	cfg := llm.TinyConfig()
	m, err := llm.NewRandom(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	sys := TinySystem(cfg, 1, 256, 1, 1)
	plan, err := NewPlan(Config{System: sys, Model: cfg, Batch: 1, Context: 256, Placement: cxl.PolicyPlacement()})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(plan, core.PartialCPU)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	e := llm.NewExecutor(m, core.PartialCPU)
	e.Mem = h
	prompts := [][]int{{5, 17, 42}, {9, 63}, {1, 2, 3, 4}, {7}}
	const n = 8
	seqs := make([]*llm.Sequence, len(prompts))
	for i, p := range prompts {
		s, err := e.NewSequence(p, n)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = s
	}
	for step := 0; step < n; step++ {
		if err := llm.StepBatch(context.Background(), seqs); err != nil {
			t.Fatal(err)
		}
	}
	solo := llm.NewExecutor(m, core.PartialCPU)
	for i, s := range seqs {
		want, err := solo.Generate(prompts[i], n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Output(), want) {
			t.Errorf("seq %d diverged under tiered hosting:\n got %v\nwant %v", i, s.Output(), want)
		}
		s.Release()
		s.Release() // idempotent
	}
	// All four caches were announced and retired.
	if got := h.Snapshot(); got.Tiers[DDR].Frees == 0 {
		t.Errorf("released caches freed no pages: %+v", got.Tiers[DDR])
	}
}
