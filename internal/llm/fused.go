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
	"math"

	"github.com/lia-sim/lia/internal/model"
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
// dots row-by-row). The invariance tests pin this against StepBatch.
//
// INT8 mode (per-pass activation scales would couple the stacked rows)
// and attached memory hosts (pass windows are per-cache) fall back to
// StepBatch; so do single-sequence batches, where there is nothing to
// stack.
func (e *Executor) StepBatchFused(ctx context.Context, seqs []*Sequence) error {
	if len(seqs) == 0 {
		return fmt.Errorf("llm: empty step batch")
	}
	if e.int8 != nil || e.Mem != nil || len(seqs) == 1 {
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
// parameter sublayers run over all B rows at once on the parent
// executor (whose Stats then count one dispatch per sublayer, not B),
// the per-sequence attention block runs on each sequence's fork in
// parallel, writing disjoint rows of the shared context matrix.
func (e *Executor) fusedLayer(ctx context.Context, li int, x tensor.Matrix, active []*Sequence) (tensor.Matrix, error) {
	cfg := e.Model.Cfg
	w := e.Model.Layers[li]

	normed := tensor.LayerNorm(x, w.LN1Gain, w.LN1Bias, 1e-5)
	qkv := tensor.AddBias(e.linear(li, model.QKVMapping, normed), w.BQKV)

	ctxAll := tensor.New(x.Rows, cfg.DModel)
	team.Run(len(active), func(r int) {
		s := active[r]
		s.e.decodeAttnRow(li, qkv.Row(r), s.cache, ctxAll.Row(r))
	})
	if err := ctx.Err(); err != nil { // the round was abandoned; its caller discards the batch
		return tensor.Matrix{}, fmt.Errorf("llm: %w", err)
	}

	attnOut := tensor.AddBias(e.linear(li, model.OutProjection, ctxAll), w.BOut)
	x = tensor.Add(x, attnOut)

	normed2 := tensor.LayerNorm(x, w.LN2Gain, w.LN2Bias, 1e-5)
	h1 := tensor.AddBias(e.linear(li, model.FC1, normed2), w.BFC1)
	if cfg.GatedFFN {
		gate := tensor.SiLU(h1.SliceCols(0, cfg.DFF))
		up := h1.SliceCols(cfg.DFF, 2*cfg.DFF)
		h1 = tensor.MulElem(gate, up)
	} else {
		h1 = tensor.ReLU(h1)
	}
	h2 := tensor.AddBias(e.linear(li, model.FC2, h1), w.BFC2)
	return tensor.Add(x, h2), nil
}

// decodeAttnRow is forwardLayer's attention block for one decode row:
// the sequence's freshly projected qkv row is split, rotated by its own
// absolute position, appended to its cache and scored against it head
// by head — operation-for-operation what a solo DecodeStep performs,
// on the fork's scratch and dispatch counters (e here is the
// sequence's fork).
func (e *Executor) decodeAttnRow(li int, qkvRow []float32, cache *KVCache, ctxRow []float32) {
	cfg := e.Model.Cfg
	d := cfg.DModel
	nh := cfg.Heads
	dh := cfg.HeadDim()
	kvDim := cfg.KVDim()
	groups := nh / cfg.KVHeads

	q := tensor.New(1, d)
	copy(q.Data, qkvRow[:d])
	k := tensor.New(1, kvDim)
	copy(k.Data, qkvRow[d:d+kvDim])
	v := tensor.New(1, kvDim)
	copy(v.Data, qkvRow[d+kvDim:d+2*kvDim])

	past := cache.K[li].Rows
	if cfg.RoPE {
		e.applyRoPECached(q, dh, past)
		e.applyRoPECached(k, dh, past)
	}
	cache.Append(li, k, v)
	fullV := cache.V[li]
	seen := fullV.Rows

	invSqrt := float32(1 / math.Sqrt(float64(dh)))
	if cap(e.khT) < dh*seen {
		e.khT = make([]float32, dh*cache.capRows)
	}
	if cap(e.qhBuf) < groups*dh {
		e.qhBuf = make([]float32, groups*dh)
	}
	if cap(e.vhBuf) < seen*dh {
		e.vhBuf = make([]float32, cache.capRows*dh)
	}
	// Same KV-head fusion as forwardLayer: the group's query rows stack
	// into one operand, one Q·Kᵀ and one probs·V per KV head (no causal
	// mask — a decode row attends to everything).
	for kvHead := 0; kvHead < cfg.KVHeads; kvHead++ {
		qh := tensor.FromSlice(groups, dh, e.qhBuf[:groups*dh])
		for g := 0; g < groups; g++ {
			h := kvHead*groups + g
			copy(qh.Row(g), q.Row(0)[h*dh:(h+1)*dh])
		}
		vh := tensor.FromSlice(seen, dh, e.vhBuf[:seen*dh])
		for r := 0; r < seen; r++ {
			copy(vh.Row(r), fullV.Row(r)[kvHead*dh:(kvHead+1)*dh])
		}
		khT := tensor.FromSlice(dh, seen, e.khT[:dh*seen])
		kt := cache.kT[li]
		for i := 0; i < dh; i++ {
			copy(khT.Row(i), kt.Row(kvHead*dh + i)[:seen])
		}
		scores := tensor.Scale(e.matmul(model.QKT, qh, khT), invSqrt)
		tensor.SoftmaxRows(scores)
		ctxH := e.matmul(model.SV, scores, vh)
		for g := 0; g < groups; g++ {
			h := kvHead*groups + g
			copy(ctxRow[h*dh:(h+1)*dh], ctxH.Row(g))
		}
	}
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
	if e.int8 != nil || e.Mem != nil {
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
