package lia_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"github.com/lia-sim/lia"
)

// ExampleRun estimates OPT-30B online inference on the paper's primary
// testbed and reports the offloading decisions LIA made.
func ExampleRun() {
	res, err := lia.Run(lia.Config{
		Framework: lia.LIA,
		System:    lia.SPRA100,
		Model:     lia.OPT30B,
		Workload:  lia.Workload{Batch: 1, InputLen: 512, OutputLen: 32},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("prefill policy:", res.PrefillPolicy)
	fmt.Println("KV cache on GPU:", res.KVOnGPU)
	// Output:
	// prefill policy: (0,0,0,0,0,0)
	// KV cache on GPU: true
}

// ExampleOptimalPolicies shows the Figure 9 decision at two workload
// points: small shapes go to the CPU, large prefills to the GPU.
func ExampleOptimalPolicies() {
	pre, dec := lia.OptimalPolicies(lia.SPRA100, lia.OPT175B, 1, 64)
	fmt.Println("B=1, L=64:", pre, dec)
	pre, dec = lia.OptimalPolicies(lia.SPRA100, lia.OPT175B, 64, 1024)
	fmt.Println("B=64, L=1024:", pre, dec)
	// Output:
	// B=1, L=64: (1,1,1,1,1,1) (1,1,1,1,1,1)
	// B=64, L=1024: (0,0,0,0,0,0) (1,1,1,1,1,1)
}

// ExampleParsePolicy round-trips the paper's vector notation.
func ExampleParsePolicy() {
	p, _ := lia.ParsePolicy("(0,1,1,0,0,0)")
	fmt.Println(p == lia.PartialCPU)
	// Output:
	// true
}

// ExampleNewFunctionalExecutor proves policy invariance on the runnable
// transformer: CPU-offloaded sublayers execute through the emulated AMX
// tile pipeline, yet greedy decoding matches the all-GPU reference.
func ExampleNewFunctionalExecutor() {
	m, _ := lia.NewFunctionalModel(lia.TinyModelConfig(), 24)
	ref, _ := lia.NewFunctionalExecutor(m, lia.FullGPU).Generate([]int{12, 7, 88}, 6)
	cpu, _ := lia.NewFunctionalExecutor(m, lia.FullCPU).Generate([]int{12, 7, 88}, 6)
	same := true
	for i := range ref {
		same = same && ref[i] == cpu[i]
	}
	fmt.Println("tokens match:", same)
	// Output:
	// tokens match: true
}

// ExampleWithCXL applies the §6 memory-offloading policy: parameters go
// to two interleaved CXL expanders, the KV cache stays in DDR, and
// throughput is unaffected.
func ExampleWithCXL() {
	sys := lia.WithCXL(lia.SPRA100, 2)
	res, _ := lia.Run(lia.Config{
		Framework: lia.LIA,
		System:    sys,
		Model:     lia.OPT30B,
		Workload:  lia.Workload{Batch: 900, InputLen: 32, OutputLen: 32},
		Placement: lia.CXLPolicyPlacement(),
	})
	fmt.Println("parameters offloaded:", res.HostPlan.CXLUsed == lia.OPT30B.ParamBytes())
	// Output:
	// parameters offloaded: true
}

// ExampleFunctionalExecutor_SpecGenerate drafts with a one-layer model
// cut from the target and verifies the drafts in one batched pass:
// greedy speculation emits exactly the target's own tokens, and the
// stats say how many drafted tokens the target accepted.
func ExampleFunctionalExecutor_SpecGenerate() {
	m, _ := lia.NewFunctionalModel(lia.TinyModelConfig(), 24)
	dm, _ := lia.NewDraftModel(m, 1)
	target := lia.NewFunctionalExecutor(m, lia.FullGPU)
	draft := lia.NewFunctionalExecutor(dm, lia.FullGPU)
	prompt := []int{12, 7, 88, 3, 41}
	plain, _ := target.Generate(prompt, 16)
	spec, stats, _ := target.SpecGenerate(prompt, 16, draft, 4)
	fmt.Println("tokens match:", slices.Equal(spec, plain))
	fmt.Printf("rounds %d, acceptance %.2f\n", stats.Rounds, stats.AcceptanceRate())
	// Output:
	// tokens match: true
	// rounds 4, acceptance 0.69
}

// ExampleTokenizer_Save persists a trained tokenizer: its merge table,
// one "a b" line per learned token above the 256 raw bytes.
func ExampleTokenizer_Save() {
	tok, _ := lia.TrainTokenizer("the cat sat on the mat. the cat ate the rat.", 260)
	var buf bytes.Buffer
	if err := tok.Save(&buf); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(tok.VocabSize(), strings.Count(buf.String(), "\n"))
	// Output:
	// 260 4
}
