package llm

import (
	"fmt"
	"math"
	"testing"

	"github.com/lia-sim/lia/internal/core"
)

func TestGreedySamplerMatchesGenerate(t *testing.T) {
	m := tinyModel(t)
	e := NewExecutor(m, core.FullGPU)
	prompt := []int{5, 6, 7}
	a, err := e.Generate(prompt, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExecutor(m, core.FullGPU).GenerateWith(prompt, 8, GreedySampler{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GenerateWith(greedy) must equal Generate")
		}
	}
	// nil sampler defaults to greedy.
	c, err := NewExecutor(m, core.FullGPU).GenerateWith(prompt, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("nil sampler should default to greedy")
		}
	}
}

func TestTopKSamplerValidation(t *testing.T) {
	if _, err := NewTopKSampler(0, 1, 1); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewTopKSampler(5, 0, 1); err == nil {
		t.Error("zero temperature accepted")
	}
}

func TestTopKSamplerDeterministicPerSeed(t *testing.T) {
	m := tinyModel(t)
	gen := func(seed int64) []int {
		s, err := NewTopKSampler(10, 0.8, seed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := NewExecutor(m, core.FullGPU).GenerateWith([]int{1, 2, 3}, 12, s)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := gen(7), gen(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the sequence")
		}
	}
	c := gen(8)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds should (almost surely) diverge")
	}
}

func TestTopK1EqualsGreedy(t *testing.T) {
	m := tinyModel(t)
	s, err := NewTopKSampler(1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewExecutor(m, core.FullGPU).GenerateWith([]int{9, 8, 7}, 10, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExecutor(m, core.FullGPU).Generate([]int{9, 8, 7}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("top-1 sampling must equal greedy")
		}
	}
}

func TestTopKStaysInVocabulary(t *testing.T) {
	m := tinyModel(t)
	s, _ := NewTopKSampler(200, 2.0, 5) // K beyond vocab clamps
	out, err := NewExecutor(m, core.PartialCPU).GenerateWith([]int{1}, 20, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range out {
		if tok < 0 || tok >= m.Cfg.VocabSize {
			t.Fatalf("token %d out of vocabulary", tok)
		}
	}
}

func TestTopKVariety(t *testing.T) {
	// With a high temperature the sampler should not get stuck on one
	// token for the whole generation.
	m := tinyModel(t)
	s, _ := NewTopKSampler(20, 3.0, 11)
	out, err := NewExecutor(m, core.FullGPU).GenerateWith([]int{1, 2}, 30, s)
	if err != nil {
		t.Fatal(err)
	}
	uniq := map[int]bool{}
	for _, tok := range out {
		uniq[tok] = true
	}
	if len(uniq) < 5 {
		t.Errorf("only %d distinct tokens at temperature 3", len(uniq))
	}
}

func TestDivergenceSelfIsZero(t *testing.T) {
	m := tinyModel(t)
	a := NewExecutor(m, core.FullGPU)
	b := NewExecutor(m, core.FullGPU)
	prompts := [][]int{{1, 2, 3}, {9, 8}, {42}}
	rel, agree, err := divergence(a, b, prompts)
	if err != nil {
		t.Fatal(err)
	}
	if rel != 0 || agree != 1 {
		t.Errorf("self-divergence = %v, agreement = %v", rel, agree)
	}
	if _, _, err := divergence(a, b, nil); err == nil {
		t.Error("empty prompt set accepted")
	}
}

// TestDivergenceINT8Small: W8A8 quantization stays within a few percent
// relative logit deviation on the tiny model, with high top-1 agreement —
// the functional counterpart of the quantization study.
func TestDivergenceINT8Small(t *testing.T) {
	m := tinyModel(t)
	ref := NewExecutor(m, core.FullGPU)
	q := NewExecutor(m, core.FullGPU)
	q.EnableINT8()
	prompts := [][]int{{1, 2, 3}, {50, 60, 70}, {7, 14, 21}, {99, 3}, {11, 22, 33, 44}}
	rel, agree, err := divergence(ref, q, prompts)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 0.10 {
		t.Errorf("INT8 divergence = %.3f, want ≤0.10", rel)
	}
	if agree < 0.6 {
		t.Errorf("top-1 agreement = %.2f, want ≥0.6", agree)
	}
}

// TestDivergenceCPUvsGPUKernels: the AMX tile pipeline and the dense path
// agree to float tolerance (policy invariance, quantified).
func TestDivergenceCPUvsGPUKernels(t *testing.T) {
	m := tinyModel(t)
	rel, agree, err := divergence(NewExecutor(m, core.FullGPU), NewExecutor(m, core.FullCPU),
		[][]int{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-4 || agree != 1 {
		t.Errorf("kernel divergence = %v, agreement = %v", rel, agree)
	}
}

// divergence compares two executors over the same model family: the mean
// across prompts of the maximum relative logit deviation at the last
// position, and the fraction of prompts whose greedy (top-1) token
// agrees. It is the functional accuracy proxy for quantization and
// kernel-substitution studies.
func divergence(a, b *Executor, prompts [][]int) (meanMaxRel, top1Agreement float64, err error) {
	if len(prompts) == 0 {
		return 0, 0, fmt.Errorf("llm: no prompts")
	}
	agree := 0
	for _, prompt := range prompts {
		la, _, err := a.Prefill(prompt)
		if err != nil {
			return 0, 0, err
		}
		lb, _, err := b.Prefill(prompt)
		if err != nil {
			return 0, 0, err
		}
		rowA := la.Row(la.Rows - 1)
		rowB := lb.Row(lb.Rows - 1)
		var scale, worst float64
		for i := range rowA {
			if m := math.Abs(float64(rowA[i])); m > scale {
				scale = m
			}
		}
		if scale == 0 {
			scale = 1
		}
		for i := range rowA {
			d := math.Abs(float64(rowA[i]-rowB[i])) / scale
			if d > worst {
				worst = d
			}
		}
		meanMaxRel += worst
		if la.ArgmaxRow(la.Rows-1) == lb.ArgmaxRow(lb.Rows-1) {
			agree++
		}
	}
	meanMaxRel /= float64(len(prompts))
	top1Agreement = float64(agree) / float64(len(prompts))
	return meanMaxRel, top1Agreement, nil
}
