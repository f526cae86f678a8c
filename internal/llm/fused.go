// One forward pass. Every entry point that runs the layer stack —
// Prefill, PrefillFrom, DecodeStep, VerifyStep, AdvancePrefill and the
// fused decode round — is one call to forward over per-sequence spans,
// with the stage a label and the batch an input, as LIA's layer model
// prices them (Eq. 3–8). The parameter sublayers run over every span's
// rows stacked: per-sequence decode would run each as a 1-row GEMV, so
// the emulated AMX pipeline would pad each call to a full 16-row tile
// block and waste 15/16 of its tile throughput; stacking a round's B
// rows turns those B dispatches into one ⌈B/16⌉-block call against the
// same packed weight image — the per-pass amortization LIA's §5 kernels
// live on. Attention cannot stack (each sequence has its own KV cache,
// length and positions), so it runs per span, in parallel on the worker
// team when there are several, each on its sequence's own executor fork
// and scratch.
package llm

import (
	"context"
	"fmt"

	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/team"
	"github.com/lia-sim/lia/internal/tensor"
)

// span is one sequence's share of a forward pass: tokens placed at the
// positions right after cache's rows, attended by e — the fork that owns
// the cache, whose scratch and dispatch counters attention uses.
type span struct {
	e      *Executor
	cache  *KVCache
	tokens []int
}

// forward runs the layer stack once over every span's tokens, appends
// their K/V rows to the spans' caches, and returns the final hidden
// states — the spans' rows stacked in order, in e's workspace — for the
// caller's head. projectQKV and finishLayer run on e over all rows at
// once; attend runs per span, causally masked. A one-span pass runs
// inside one MemHost window on e, closed before forward returns and so
// before the head; a multi-span pass opens none (windows are per cache).
// A span that would append past its cache's capacity, or a token outside
// the vocabulary, fails the pass before any layer runs, so every cache
// is left as it was. A sublayer whose shapes do not fit its weight fails
// the pass, and a multi-span pass also gives up once ctx is done; either
// leaves the caches part-extended.
//
// Per-element results do not depend on how rows are stacked: every
// kernel on the path computes each output row from its input row alone —
// LayerNorm, bias adds and activations are row-wise, and both GEMM routes
// accumulate each output element over its own row in a fixed k-order no
// matter which other rows share the call (the AMX tile blocks zero-pad
// unused rows; the dense route rounds elementwise and runs four rows per
// pass over the weights, adding each row's terms in k order exactly as
// that row alone would). The causal mask gives row r of a span exactly
// the positions sequential decode would see, and RoPE rotates by
// absolute position. The INT8 tiers quantize each span's rows with their
// own activation scale (the workspace's groups), so stacking spans moves
// no bit there either; but rows within one span are coupled, so on them
// callers never split one sequence's rows across passes (tier.rowCoupled).
func (e *Executor) forward(ctx context.Context, stage model.Stage, spans ...span) (tensor.Matrix, error) {
	rows := 0
	e.ws.groups = e.ws.groups[:0]
	for _, sp := range spans {
		if past := sp.cache.Len(); past+len(sp.tokens) > sp.cache.capRows {
			return tensor.Matrix{}, fmt.Errorf("llm: %d rows after %d cached exceed the KV cache's capacity of %d rows",
				len(sp.tokens), past, sp.cache.capRows)
		}
		rows += len(sp.tokens)
		e.ws.groups = append(e.ws.groups, len(sp.tokens))
	}
	d := e.Model.Cfg.DModel
	x := mat(&e.ws.x, rows, d)
	r := 0
	for _, sp := range spans {
		for i, tok := range sp.tokens {
			if err := e.embedRow(x.Row(r), tok, sp.cache.Len()+i); err != nil {
				return tensor.Matrix{}, err
			}
			r++
		}
	}
	switch {
	case len(spans) > 1:
		// Scratch, not the variadic slice, feeds the team: a closure
		// capturing spans would move every caller's span array to the heap.
		e.spans = append(e.spans[:0], spans...)
		defer clear(e.spans)
	case e.Mem != nil:
		e.pass = e.Mem.BeginPass(spans[0].cache.id, stage, rows, spans[0].cache.Len())
		defer e.endPass()
	}
	for li := range e.Model.Layers {
		if e.pass != nil {
			e.pass.LayerStart(li)
		}
		qkv, err := e.projectQKV(li, x)
		if err != nil {
			return tensor.Matrix{}, err
		}
		att := mat(&e.ws.att, rows, d)
		if len(spans) == 1 {
			err = spans[0].e.attend(li, qkv, spans[0].cache, att)
		} else if err = team.RunErr(ctx, len(e.spans), func(i int) error {
			lo := 0
			for _, sp := range e.spans[:i] {
				lo += len(sp.tokens)
			}
			sp := e.spans[i]
			hi := lo + len(sp.tokens)
			return sp.e.attend(li, rowRange(qkv, lo, hi), sp.cache, rowRange(att, lo, hi))
		}); err != nil { // a failed or abandoned round; its caller discards the batch
			err = fmt.Errorf("llm: %w", err)
		}
		if err != nil {
			return tensor.Matrix{}, err
		}
		if err := e.finishLayer(li, x, att); err != nil {
			return tensor.Matrix{}, err
		}
	}
	return x, nil
}

// StepBatchFused advances every sequence one decode step like
// StepBatch, computing the four parameter sublayers of the whole batch
// as one stacked GEMM each instead of B single-row calls: one forward
// pass over a one-token span per sequence, whose tokens are bit-identical
// to StepBatch's (see forward; the invariance tests pin it). The parent
// executor's Stats count one dispatch per parameter sublayer, each
// sequence's fork its own attention.
//
// Every tier stacks, INT8's included: its activation scale is per span,
// one per sequence here, so a fused INT8 round is bit-identical to
// per-sequence decode (see quant.Linear). Attached memory hosts (pass
// windows are per-cache) fall back to StepBatch; so do single-sequence
// batches, where there is nothing to stack. Each row's next token is the
// argmax of logits written into e's workspace.
func (e *Executor) StepBatchFused(ctx context.Context, seqs []*Sequence) error {
	if len(seqs) == 0 {
		return fmt.Errorf("llm: empty step batch")
	}
	if e.Mem != nil || len(seqs) == 1 {
		return StepBatch(ctx, seqs)
	}
	// Emit phase, preserving Step's error contract for finished or
	// still-prefilling members. The spans go straight into e's scratch.
	spans := e.spans[:0]
	for _, s := range seqs {
		if s.Prefilling() {
			return fmt.Errorf("llm: sequence is still prefilling (%d/%d prompt tokens)", s.prefillPos, len(s.prompt))
		}
		if s.Done() {
			return fmt.Errorf("llm: sequence already emitted its %d tokens", s.target)
		}
		s.out = append(s.out, s.pending)
		if !s.Done() {
			spans = append(spans, span{s.e, s.cache, s.out[len(s.out)-1:]})
		}
	}
	e.spans = spans
	defer clear(spans)
	if len(spans) == 0 {
		return nil
	}
	x, err := e.forward(ctx, model.Decode, spans...)
	if err != nil {
		return err
	}
	logits := e.argmaxes(x)
	r := 0
	for _, s := range seqs {
		if !s.Done() {
			s.pending = logits.ArgmaxRow(r)
			r++
		}
	}
	return nil
}
