package gateway

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/llm"
)

// Serving under a compressed weight tier: the gateway applies the tier
// at construction, tokens match a solo executor with the same tier, and
// the lia_quant_* gauges report it.
func TestGatewayServesCompressedTiers(t *testing.T) {
	prompt := []int{3, 14, 15}
	for _, tc := range []struct {
		cfg  Config
		tier string
	}{
		{Config{Quant: "sparse", QuantSparsity: 0.5}, "sparse"},
		{Config{Quant: "int4lut"}, "int4lut"},
		{Config{Quant: "int8"}, "int8"},
		{Config{Quant: "sparse-int8", QuantSparsity: 0.5}, "sparse-int8"},
	} {
		g, err := New(testExecutor(t), Config{MaxBatch: 2, Quant: tc.cfg.Quant, QuantSparsity: tc.cfg.QuantSparsity, QuantGroup: tc.cfg.QuantGroup})
		if err != nil {
			t.Fatal(err)
		}
		// Reference: a solo executor with the same tier enabled.
		want, err := tierExecutor(t, tc.tier).Generate(prompt, 6)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := g.Submit(ctx, prompt, 6)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", tc.tier, err)
		}
		for i := range want {
			if res.Tokens[i] != want[i] {
				t.Fatalf("%s: served tokens %v, want %v", tc.tier, res.Tokens, want)
			}
		}

		snap := g.Snapshot()
		if snap.QuantTier != tc.tier {
			t.Errorf("snapshot tier %q, want %q", snap.QuantTier, tc.tier)
		}
		if snap.WeightFootprintBytes == 0 {
			t.Error("zero weight footprint reported")
		}
		prom := g.Prometheus()
		if !strings.Contains(prom, `lia_quant_tier{tier="`+tc.tier+`"} 1`) {
			t.Errorf("%s: lia_quant_tier gauge missing:\n%s", tc.tier, prom)
		}
		if !strings.Contains(prom, "lia_quant_weight_bytes") {
			t.Error("lia_quant_weight_bytes gauge missing")
		}
		if tc.tier == "sparse" && !strings.Contains(prom, "lia_quant_block_sparsity") {
			t.Error("lia_quant_block_sparsity gauge missing for sparse tier")
		}
		shutdown(t, g)
	}
}

// tierExecutor is testExecutor with the named compressed tier enabled as
// the gateway's Config enables it in these tests.
func tierExecutor(t *testing.T, tier string) *llm.Executor {
	t.Helper()
	e := testExecutor(t)
	switch tier {
	case "sparse":
		e.EnableSparse(0.5)
	case "int4lut":
		e.EnableINT4LUT(0)
	case "int8":
		e.EnableINT8()
	case "sparse-int8":
		e.EnableSparseINT8(0.5)
	}
	return e
}

// Four requests in flight at once under each compressed tier: the live
// batcher (MaxBatch 4) stacks them into fused decode rounds — the INT8
// tiers' included, since their activation scale is per sequence — and
// each request's tokens still equal a solo Generate on the same tier.
// The batcher holds its first admission until the other three requests
// are queued, so they join the first one's decode rounds whatever the
// host's load. Only a fused round runs parameter products on the
// gateway's own executor (prefill and per-sequence steps run on forks),
// so a nonzero INT8 count there proves the INT8 rounds stacked.
func TestGatewayStacksCompressedTiers(t *testing.T) {
	prompts := [][]int{{3, 14, 15}, {92, 65}, {35, 89, 79, 32}, {38}}
	const n = 12
	for _, tc := range []struct {
		cfg  Config
		tier string
	}{
		{Config{Quant: "sparse", QuantSparsity: 0.5}, "sparse"},
		{Config{Quant: "int4lut"}, "int4lut"},
		{Config{Quant: "int8"}, "int8"},
		{Config{Quant: "sparse-int8", QuantSparsity: 0.5}, "sparse-int8"},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			admitted, queued := make(chan struct{}), make(chan struct{})
			var first sync.Once
			exec := testExecutor(t)
			g, err := New(exec, Config{MaxBatch: 4, Quant: tc.cfg.Quant, QuantSparsity: tc.cfg.QuantSparsity,
				OnEvent: func(e batchpolicy.Event) {
					if e.Kind == batchpolicy.EventAdmit {
						first.Do(func() { close(admitted); <-queued })
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]int, len(prompts))
			errs := make([]error, len(prompts))
			var wg sync.WaitGroup
			submit := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					res, err := g.Submit(ctx, prompts[i], n)
					got[i], errs[i] = res.Tokens, err
				}()
			}
			submit(0)
			<-admitted
			for i := 1; i < len(prompts); i++ {
				submit(i)
			}
			for len(g.submit) < len(prompts)-1 {
				runtime.Gosched()
			}
			close(queued)
			wg.Wait()
			shutdown(t, g)
			for i, p := range prompts {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				want, err := tierExecutor(t, tc.tier).Generate(p, n)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got[i], want) {
					t.Errorf("request %d: served tokens %v, solo Generate %v", i, got[i], want)
				}
			}
			if exec.INT8() && exec.Stats.Int8Matmuls == 0 {
				t.Error("no INT8 decode round stacked on the gateway's executor")
			}
		})
	}
}

// The compressed tiers shrink the footprint the gateway reports, in the
// documented order: int4lut < sparse(0.5) < dense.
func TestGatewayQuantFootprintOrdering(t *testing.T) {
	footprint := func(q string) uint64 {
		g, err := New(testExecutor(t), Config{Quant: q, MaxBatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown(t, g)
		return g.Snapshot().WeightFootprintBytes
	}
	dense := footprint("dense")
	sparse := footprint("sparse")
	int4 := footprint("int4lut")
	if !(int4 < sparse && sparse < dense) {
		t.Errorf("footprints not ordered: int4 %d, sparse %d, dense %d", int4, sparse, dense)
	}
}

func TestGatewayRejectsBadQuantConfig(t *testing.T) {
	m, err := llm.NewRandom(llm.TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	exec := llm.NewExecutor(m, core.PartialCPU)
	if _, err := New(exec, Config{Quant: "fp8"}); err == nil {
		t.Error("unknown tier accepted")
	}
	if _, err := New(exec, Config{Quant: "sparse", QuantSparsity: 1.5}); err == nil {
		t.Error("sparsity ≥ 1 accepted")
	}
	if _, err := New(exec, Config{Quant: "int4lut", QuantGroup: -2}); err == nil {
		t.Error("negative group accepted")
	}
}
