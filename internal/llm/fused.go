// Cross-sequence batched decode: one scheduling round's B single-row
// decode passes share every parameter GEMM. Per-sequence decode runs
// each sublayer as a 1-row GEMV, so the emulated AMX pipeline pads each
// call to a full 16-row tile block and wastes 15/16 of its tile
// throughput; stacking the B activation rows into one matrix turns
// those B dispatches into one ⌈B/16⌉-block call against the same packed
// weight image — the per-pass amortization LIA's §5 kernels live on.
// Attention cannot stack (each sequence has its own KV cache, length
// and positions), so it stays per-sequence and runs in parallel on the
// worker team using each sequence's own executor fork and scratch.
package llm

import (
	"context"
	"fmt"

	"github.com/lia-sim/lia/internal/team"
	"github.com/lia-sim/lia/internal/tensor"
)

// StepBatchFused advances every sequence one decode step like
// StepBatch, computing the four parameter sublayers of the whole batch
// as one stacked GEMM each instead of B single-row calls.
//
// Per-element results are bit-identical to StepBatch: every kernel on
// the stacked path computes each output row from its input row alone —
// LayerNorm, bias adds and activations are row-wise, and both GEMM
// routes accumulate each output element over its own row in a fixed
// k-order no matter which other rows share the call (the AMX tile
// blocks zero-pad unused rows; the dense route rounds elementwise and
// runs four rows per pass over the weights, adding each row's terms in
// k order exactly as that row alone would). The invariance tests pin
// this against StepBatch.
//
// INT8 mode (per-pass activation scales would couple the stacked rows)
// and attached memory hosts (pass windows are per-cache) fall back to
// StepBatch; so do single-sequence batches, where there is nothing to
// stack.
func (e *Executor) StepBatchFused(ctx context.Context, seqs []*Sequence) error {
	if len(seqs) == 0 {
		return fmt.Errorf("llm: empty step batch")
	}
	if e.tier.rowCoupled || e.Mem != nil || len(seqs) == 1 {
		return StepBatch(ctx, seqs)
	}
	// Emit phase, preserving Step's error contract for finished or
	// still-prefilling members.
	active := make([]*Sequence, 0, len(seqs))
	for _, s := range seqs {
		if s.Prefilling() {
			return fmt.Errorf("llm: sequence is still prefilling (%d/%d prompt tokens)", s.prefillPos, len(s.prompt))
		}
		if s.Done() {
			return fmt.Errorf("llm: sequence already emitted its %d tokens", s.target)
		}
		s.out = append(s.out, s.pending)
		if !s.Done() {
			active = append(active, s)
		}
	}
	if len(active) == 0 {
		return nil
	}
	return e.decodeRoundFused(ctx, active)
}

// decodeRoundFused computes the next pending token for every active
// sequence in one stacked pass over the layer stack.
func (e *Executor) decodeRoundFused(ctx context.Context, active []*Sequence) error {
	x := tensor.New(len(active), e.Model.Cfg.DModel)
	for r, s := range active {
		tok := s.out[len(s.out)-1]
		if err := e.embedRow(x.Row(r), tok, s.cache.Len()); err != nil {
			return err
		}
	}
	var err error
	for li := range e.Model.Layers {
		if x, err = e.fusedLayer(ctx, li, x, active); err != nil {
			return err
		}
	}
	logits := e.logits(x)
	for r, s := range active {
		s.pending = logits.ArgmaxRow(r)
	}
	return nil
}

// fusedLayer is forwardLayer for one stacked decode round: the
// parameter sublayers (projectQKV, finishLayer) run over all B rows at
// once on the parent executor (whose Stats then count one dispatch per
// sublayer, not B); attend runs per sequence in parallel, each on its
// own fork with a one-row view of the stacked qkv — operation for
// operation what a solo DecodeStep performs (no causal mask: a decode row
// attends to everything) — writing its row of the shared context matrix.
func (e *Executor) fusedLayer(ctx context.Context, li int, x tensor.Matrix, active []*Sequence) (tensor.Matrix, error) {
	qkv := e.projectQKV(li, x)
	ctxAll := tensor.New(x.Rows, e.Model.Cfg.DModel)
	team.Run(len(active), func(r int) {
		s := active[r]
		qkvRow := tensor.FromSlice(1, qkv.Cols, qkv.Row(r))
		ctxRow := tensor.FromSlice(1, ctxAll.Cols, ctxAll.Row(r))
		s.e.attend(li, qkvRow, s.cache, false, ctxRow)
	})
	if err := ctx.Err(); err != nil { // the round was abandoned; its caller discards the batch
		return tensor.Matrix{}, fmt.Errorf("llm: %w", err)
	}
	return e.finishLayer(li, x, ctxAll), nil
}

// GenerateBatchFused is GenerateBatch through the fused decode rounds:
// prompts prefill in parallel, then every decode iteration advances the
// whole batch through StepBatchFused. Tokens are bit-identical to
// GenerateBatch (and to sequential Generate calls); only the dispatch
// shape changes.
func (e *Executor) GenerateBatchFused(prompts [][]int, n int) ([][]int, error) {
	if len(prompts) == 0 {
		return nil, fmt.Errorf("llm: empty batch")
	}
	if e.tier.rowCoupled || e.Mem != nil {
		return e.GenerateBatch(prompts, n)
	}
	ctx := context.Background()
	seqs := make([]*Sequence, len(prompts))
	if err := team.RunErr(ctx, len(prompts), func(i int) (err error) {
		seqs[i], err = e.NewSequence(prompts[i], n)
		return err
	}); err != nil {
		return nil, fmt.Errorf("llm: %w", err)
	}
	for {
		live := seqs[:0:0]
		for _, s := range seqs {
			if !s.Done() {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			break
		}
		if err := e.StepBatchFused(ctx, live); err != nil {
			return nil, err
		}
	}
	out := make([][]int, len(seqs))
	for i, s := range seqs {
		out[i] = s.Output()
		e.Stats.add(s.e.Stats)
	}
	return out, nil
}
