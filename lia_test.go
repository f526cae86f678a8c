package lia_test

import (
	"strings"
	"testing"

	"github.com/lia-sim/lia"
)

func TestQuickstartFlow(t *testing.T) {
	res, err := lia.Run(lia.Config{
		Framework: lia.LIA,
		System:    lia.SPRA100,
		Model:     lia.OPT30B,
		Workload:  lia.Workload{Batch: 1, InputLen: 512, OutputLen: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM || res.Latency <= 0 || res.Throughput <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestFrameworkComparisonThroughAPI(t *testing.T) {
	w := lia.Workload{Batch: 1, InputLen: 256, OutputLen: 32}
	var latencies []lia.Seconds
	for _, fw := range []lia.Framework{lia.LIA, lia.IPEX, lia.FlexGen} {
		res, err := lia.Run(lia.Config{Framework: fw, System: lia.SPRA100, Model: lia.OPT30B, Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		latencies = append(latencies, res.Latency)
	}
	if latencies[0] >= latencies[1] || latencies[0] >= latencies[2] {
		t.Errorf("LIA should lead: %v", latencies)
	}
}

func TestOptimalPolicies(t *testing.T) {
	pre, dec := lia.OptimalPolicies(lia.SPRA100, lia.OPT175B, 1, 64)
	if pre != lia.FullCPU || dec != lia.FullCPU {
		t.Errorf("small-shape policies = %s / %s, want full CPU", pre, dec)
	}
	pre, _ = lia.OptimalPolicies(lia.SPRA100, lia.OPT175B, 64, 1024)
	if pre != lia.FullGPU {
		t.Errorf("large-shape prefill = %s, want full GPU", pre)
	}
}

func TestPolicyLatencyAndParse(t *testing.T) {
	p, err := lia.ParsePolicy("(0,1,1,0,0,0)")
	if err != nil {
		t.Fatal(err)
	}
	if p != lia.PartialCPU {
		t.Errorf("parsed %s", p)
	}
	lat := lia.PolicyLatency(lia.SPRA100, lia.OPT175B, lia.Decode, p, 32, 512)
	if lat <= 0 {
		t.Errorf("latency = %v", lat)
	}
}

func TestCatalogLookups(t *testing.T) {
	if len(lia.Systems()) < 6 || len(lia.Models()) < 8 {
		t.Error("catalog too small")
	}
	if _, err := lia.SystemByName("SPR-A100"); err != nil {
		t.Error(err)
	}
	if _, err := lia.SystemByName("TPU-pod"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("bad error: %v", err)
	}
	if _, err := lia.ModelByName("OPT-175B"); err != nil {
		t.Error(err)
	}
}

func TestFrameworkByName(t *testing.T) {
	cases := []struct {
		name string
		want lia.Framework
	}{
		{"LIA", lia.LIA}, {"lia", lia.LIA},
		{"IPEX", lia.IPEX}, {"ipex", lia.IPEX},
		{"FlexGen", lia.FlexGen}, {"flexgen", lia.FlexGen},
		{"PowerInfer", lia.PowerInfer},
		{"MultiGPU", lia.MultiGPU}, {"multigpu-tp8", lia.MultiGPU}, {"DGX", lia.MultiGPU},
		{"ZeRO", lia.ZeROInference}, {"zero-inference", lia.ZeROInference}, {"DeepSpeed", lia.ZeROInference},
	}
	for _, c := range cases {
		if got, err := lia.FrameworkByName(c.name); err != nil || got != c.want {
			t.Errorf("FrameworkByName(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	// Every framework's printed name resolves to itself.
	for _, fw := range []lia.Framework{lia.LIA, lia.IPEX, lia.FlexGen, lia.PowerInfer, lia.MultiGPU, lia.ZeROInference} {
		if got, err := lia.FrameworkByName(fw.String()); err != nil || got != fw {
			t.Errorf("FrameworkByName(%q) = %v, %v; want %v", fw.String(), got, err, fw)
		}
	}
	for _, name := range []string{"", "vLLM", "lia ", "Framework(9)"} {
		if _, err := lia.FrameworkByName(name); err == nil || !strings.Contains(err.Error(), "unknown framework") {
			t.Errorf("FrameworkByName(%q): error %v, want unknown framework", name, err)
		}
	}
}

func TestCXLThroughAPI(t *testing.T) {
	sys := lia.WithCXL(lia.SPRA100, 2)
	res, err := lia.Run(lia.Config{
		Framework: lia.LIA,
		System:    sys,
		Model:     lia.OPT30B,
		Workload:  lia.Workload{Batch: 900, InputLen: 32, OutputLen: 32},
		Placement: lia.CXLPolicyPlacement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HostPlan.CXLUsed <= 0 {
		t.Error("CXL placement did not move anything")
	}
}

func TestFunctionalEngineThroughAPI(t *testing.T) {
	m, err := lia.NewFunctionalModel(lia.TinyModelConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lia.NewFunctionalExecutor(m, lia.FullGPU).Generate([]int{1, 2, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lia.NewFunctionalExecutor(m, lia.PartialCPU).Generate([]int{1, 2, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatal("offloading changed the generated tokens")
		}
	}
}

func TestServingThroughAPI(t *testing.T) {
	gen, err := lia.NewTraceGenerator(lia.TraceConversation, 32, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := lia.PoissonArrivals(gen, 8, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lia.ServeConfig{
		System: lia.SPRA100, Model: lia.OPT30B, Framework: lia.LIA,
		MaxBatch: 4, MaxWait: 1, AssumeHostCapacity: true,
	}
	static, err := lia.Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := lia.ServeContinuous(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if static.Completed != 8 || cont.Completed != 8 {
		t.Errorf("completed %d / %d, want 8 each", static.Completed, cont.Completed)
	}
}

func TestSpeculativeThroughAPI(t *testing.T) {
	res, err := lia.EstimateSpeculative(lia.SpeculativeConfig{
		System: lia.SPRA100, Target: lia.OPT175B,
		Draft: lia.TinyModelConfig(), Gamma: 4, Acceptance: 0.8,
		Batch: 1, Context: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1 {
		t.Errorf("speedup = %.2f", res.Speedup)
	}
}

func TestInt8VariantThroughAPI(t *testing.T) {
	v := lia.Int8Variant(lia.OPT30B)
	if v.BytesPerParam != 1 {
		t.Error("variant not INT8")
	}
}

func TestCustomSystemThroughAPI(t *testing.T) {
	sys, err := lia.ParseSystem([]byte(`{"name":"api-box","base":"GNR-A100"}`))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "api-box" {
		t.Errorf("name = %q", sys.Name)
	}
	if _, err := lia.LoadSystem("/nonexistent.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTinyLlamaThroughAPI(t *testing.T) {
	m, err := lia.NewFunctionalModel(lia.TinyLlamaConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := lia.NewFunctionalExecutor(m, lia.FullCPU).Generate([]int{3, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Errorf("generated %d tokens", len(out))
	}
}

func TestNaivePlacementThroughAPI(t *testing.T) {
	sys := lia.WithCXL(lia.SPRA100, 2)
	res, err := lia.Run(lia.Config{
		Framework: lia.LIA, System: sys, Model: lia.OPT30B,
		Workload:  lia.Workload{Batch: 64, InputLen: 32, OutputLen: 16},
		Placement: lia.NaiveCXLPlacement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HostPlan.DDRUsed != 0 {
		t.Error("naive placement should leave DDR empty")
	}
}

func TestZeROThroughAPI(t *testing.T) {
	res, err := lia.Run(lia.Config{
		Framework: lia.ZeROInference, System: lia.SPRA100, Model: lia.OPT30B,
		Workload: lia.Workload{Batch: 1, InputLen: 128, OutputLen: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM || res.Latency <= 0 {
		t.Errorf("bad result: %+v", res)
	}
}
