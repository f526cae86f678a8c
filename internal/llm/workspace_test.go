package llm

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/quant"
	"github.com/lia-sim/lia/internal/tensor"
)

// workspaceFloats is how many float32s e's pass workspace holds.
func workspaceFloats(e *Executor) int {
	w := &e.ws
	return cap(w.x) + cap(w.normed) + cap(w.qkv) + cap(w.att) + cap(w.h1) + cap(w.act) + cap(w.out)
}

// TestPassResultsSurviveLaterPasses pins what a caller may keep: the
// logits Prefill, DecodeStep and VerifyStep return, and the cache Prefill
// returns, do not change across the next two passes — on the same
// executor, whose workspace those passes reuse, and on a fork of it.
func TestPassResultsSurviveLaterPasses(t *testing.T) {
	for _, mc := range []struct {
		name string
		cfg  func() model.Config
	}{{"tiny-opt", TinyConfig}, {"tiny-llama", TinyLlamaConfig}} {
		m, err := NewRandom(mc.cfg(), 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name   string
			policy core.Policy
		}{{"FullGPU", core.FullGPU}, {"FullCPU", core.FullCPU}, {"PartialCPU", core.PartialCPU}} {
			t.Run(mc.name+"/"+p.name, func(t *testing.T) {
				e := NewExecutor(m, p.policy)
				sub := e.fork()
				twoPasses := func(x *Executor) {
					t.Helper()
					_, c, err := x.Prefill([]int{3, 1, 4, 1, 5, 9, 2, 6})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := x.VerifyStep(c, []int{5, 3, 5}); err != nil {
						t.Fatal(err)
					}
				}
				pre, cache, err := e.Prefill([]int{7, 8, 9, 10})
				if err != nil {
					t.Fatal(err)
				}
				dec, err := e.DecodeStep(cache, 11)
				if err != nil {
					t.Fatal(err)
				}
				ver, err := e.VerifyStep(cache, []int{12, 13})
				if err != nil {
					t.Fatal(err)
				}
				kept := []tensor.Matrix{pre, dec, ver, cache.K[0], cache.V[len(cache.V)-1]}
				want := make([]tensor.Matrix, len(kept))
				for i, k := range kept {
					want[i] = k.Clone()
				}
				for _, x := range []*Executor{e, sub} {
					twoPasses(x)
					for i := range kept {
						if !reflect.DeepEqual(kept[i].Data, want[i].Data) {
							t.Fatalf("result %d changed under a later pass", i)
						}
					}
				}
			})
		}
	}
}

// TestFusedPendingSurvivesLaterPasses runs other passes on a fused
// round's executor and on one of its sequences' forks between rounds:
// the pending tokens a round computed do not move, and every sequence
// still emits what a solo Generate emits.
func TestFusedPendingSurvivesLaterPasses(t *testing.T) {
	m, err := NewRandom(TinyLlamaConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	prompts := [][]int{{5, 17, 42}, {9, 33, 71, 2}, {1}, {60, 61, 62, 63, 64}}
	const n = 8
	e := NewExecutor(m, core.PartialCPU)
	seqs := make([]*Sequence, len(prompts))
	for i, p := range prompts {
		if seqs[i], err = e.NewSequence(p, n); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for !seqs[0].Done() {
		if err := e.StepBatchFused(ctx, seqs); err != nil {
			t.Fatal(err)
		}
		pending := make([]int, len(seqs))
		for i, s := range seqs {
			pending[i] = s.pending
		}
		for _, x := range []*Executor{e, seqs[1].e} {
			if _, err := x.Generate([]int{8, 6, 7, 5, 3, 0, 9}, 2); err != nil {
				t.Fatal(err)
			}
		}
		for i, s := range seqs {
			if s.pending != pending[i] {
				t.Fatalf("sequence %d: pending token moved %d → %d", i, pending[i], s.pending)
			}
		}
	}
	for i, p := range prompts {
		solo, err := NewExecutor(m, core.PartialCPU).Generate(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqs[i].Output(), solo) {
			t.Errorf("sequence %d: %v, solo Generate %v", i, seqs[i].Output(), solo)
		}
	}
}

// TestParkedSequenceKeepsNoPassBuffer requires a sequence's fork to let go
// of its prefill workspace: after a long prompt it holds none, fused
// rounds (where the fork only attends) give it none, and a solo step
// leaves it one decode row's worth, never the prompt's.
func TestParkedSequenceKeepsNoPassBuffer(t *testing.T) {
	m, err := NewRandom(TinyConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(m, core.FullGPU)
	prompt := make([]int, 48)
	for i := range prompt {
		prompt[i] = (i * 7) % m.Cfg.VocabSize
	}
	seqs := make([]*Sequence, 3)
	for i := range seqs {
		if seqs[i], err = e.NewSequenceChunked(prompt[i:], 6, 16, nil); err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			if done, err = seqs[i].AdvancePrefill(); err != nil {
				t.Fatal(err)
			}
			if got := workspaceFloats(seqs[i].e); got != 0 {
				t.Fatalf("sequence %d: fork holds %d workspace floats after a prefill chunk", i, got)
			}
		}
	}
	for r := 0; r < 2; r++ {
		if err := e.StepBatchFused(context.Background(), seqs); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range seqs {
		if got := workspaceFloats(s.e); got != 0 {
			t.Errorf("sequence %d: fork holds %d workspace floats after fused rounds", i, got)
		}
	}
	if _, err := seqs[0].Step(); err != nil {
		t.Fatal(err)
	}
	solo := NewExecutor(m, core.FullGPU)
	_, c, err := solo.Prefill([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	solo.ws = workspace{}
	if _, err := solo.DecodeStep(c, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := workspaceFloats(seqs[0].e), workspaceFloats(solo); got != want {
		t.Errorf("fork holds %d workspace floats after a solo step, one decode row takes %d", got, want)
	}
}

// TestShapeMismatchFailsPass swaps one weight for a mis-shaped one in each
// tier's format and requires every entry point that runs the layer stack
// to return an error naming it, on each route, instead of panicking.
func TestShapeMismatchFailsPass(t *testing.T) {
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(m.Cfg.DFF+1, m.Cfg.DModel) // FC2 with one input row too many
	int4, err := quant.QuantizeINT4(bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := amx.PrepackBF16Sparse(bad.Data, bad.Rows, bad.Cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy core.Policy
		op     linearOp
		want   string
	}{
		{"dense/gpu", core.FullGPU, newDenseOp(bad), "shape mismatch"},
		{"dense/amx", core.FullCPU, newDenseOp(bad), "AMX matmul"},
		{"sparse/amx", core.FullCPU, &sparseOp{pre: sparse, gpu: tensor.RoundedBF16(bad)}, "AMX matmul"},
		{"sparse/gpu", core.FullGPU, &sparseOp{pre: sparse, gpu: tensor.RoundedBF16(bad)}, "shape mismatch"},
		{"int8", core.FullCPU, &int8Op{w: quant.QuantizeWeights(bad)}, "int8 linear"},
		{"int4", core.FullCPU, &int4Op{w: int4}, "int4 linear"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor(m, tc.policy)
			seqs := make([]*Sequence, 2)
			for i := range seqs {
				if seqs[i], err = e.NewSequence([]int{4 + i, 2}, 4); err != nil {
					t.Fatal(err)
				}
			}
			e.tier.ops[1][model.FC2] = tc.op
			_, cache, err := e.Prefill([]int{1, 2, 3})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Prefill: error %v, want one containing %q", err, tc.want)
			}
			if _, err := e.DecodeStep(e.newCache(e.Model.Cfg.MaxSeqLen), 1); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeStep: error %v, want one containing %q", err, tc.want)
			}
			if err := e.StepBatchFused(context.Background(), seqs); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("fused round: error %v, want one containing %q", err, tc.want)
			}
			if cache != nil {
				t.Error("a failed Prefill returned a cache")
			}
		})
	}
}
