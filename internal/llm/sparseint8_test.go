package llm

import (
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/quant"
)

// prunedModelINT8 prunes every parameter matrix at the INT8 tile
// granularity — the dense-INT8 reference the sparse-INT8 tier must
// match bit-for-bit.
func prunedModelINT8(m *Model, sparsity float64) *Model {
	out := *m
	out.Layers = append([]LayerWeights(nil), m.Layers...)
	for i := range out.Layers {
		l := &out.Layers[i]
		l.WQKV, _ = quant.PruneBlocksINT8(l.WQKV, sparsity)
		l.WOut, _ = quant.PruneBlocksINT8(l.WOut, sparsity)
		l.WFC1, _ = quant.PruneBlocksINT8(l.WFC1, sparsity)
		l.WFC2, _ = quant.PruneBlocksINT8(l.WFC2, sparsity)
	}
	return &out
}

// The satellite contract: the zero-block bitmap skip on the TDPBUSD
// prepacked image is an elision, not an approximation. A sparse-INT8
// executor produces bit-identical tokens to a dense-INT8 executor
// running the same pruned weights (a pruned element quantizes to code 0
// exactly, and a zero integer block contributes +0 to every
// accumulator).
func TestSparseINT8BitIdenticalToDenseINT8OnPrunedWeights(t *testing.T) {
	m := tinyModel(t)
	prompt := []int{3, 14, 15, 92}
	const sparsity = 0.5
	for _, p := range []core.Policy{core.FullCPU, core.FullGPU, core.PartialCPU} {
		refExec := NewExecutor(prunedModelINT8(m, sparsity), p)
		refExec.EnableINT8()
		ref, err := refExec.Generate(prompt, 12)
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor(m, p)
		e.EnableSparseINT8(sparsity)
		if e.QuantTier() != "sparse-int8" {
			t.Fatal("sparse-int8 tier not reported")
		}
		got, err := e.Generate(prompt, 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("policy %s: sparse-int8 tokens diverged at %d: %v vs %v", p, i, got, ref)
			}
		}
	}
}

func TestSparseINT8StatsAndFootprint(t *testing.T) {
	m := tinyModel(t)
	dense := NewExecutor(m, core.FullCPU)
	dense.EnableINT8()
	denseBytes := dense.WeightFootprint()

	e := NewExecutor(m, core.FullCPU)
	e.EnableSparseINT8(0.5)
	if _, _, err := e.Prefill([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if want := 4 * m.Cfg.Layers; e.Stats.SparseMatmuls != want {
		t.Errorf("sparse matmuls = %d, want %d", e.Stats.SparseMatmuls, want)
	}
	if e.Stats.SparseBlocksSkipped == 0 {
		t.Error("no blocks skipped at 50% sparsity")
	}
	if got := e.WeightFootprint(); got >= denseBytes {
		t.Errorf("sparse-int8 footprint %d not below dense int8 %d", got, denseBytes)
	}
	if f := e.SparseSkipFraction(); f < 0.4 || f > 0.7 {
		t.Errorf("skip fraction %v, want ≈0.5", f)
	}
}

// sparse-int8 replaces the other tiers and is replaced by them.
func TestSparseINT8MutuallyExclusive(t *testing.T) {
	e := NewExecutor(tinyModel(t), core.FullGPU)
	e.EnableSparse(0.25)
	e.EnableSparseINT8(0.5)
	if e.QuantTier() != "sparse-int8" {
		t.Fatal("EnableSparseINT8 must clear other tiers")
	}
	e.EnableINT8()
	if e.QuantTier() != "int8" {
		t.Fatal("EnableINT8 must clear the sparse-int8 marker")
	}
	e.EnableSparseINT8(0.5)
	e.EnableINT4LUT(0)
	if e.QuantTier() != "int4lut" {
		t.Fatal("EnableINT4LUT must clear sparse-int8")
	}
}
