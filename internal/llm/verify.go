package llm

import (
	"context"
	"fmt"

	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/tensor"
)

// Truncate rolls the cache back to its first n rows — the speculative
// verifier's rejection path: proposed tokens past the accepted prefix
// had their K/V rows appended by the verify pass and must be discarded
// before the next round. Row counts shrink in place (the backing arrays
// keep their capacity, so later Appends still land without copying).
// The transposed mirror's columns beyond n go stale, which is harmless:
// the dense route reads only the first Len() columns and the next Append
// overwrites exactly the stale region. The tile images are different —
// P·V reads V up to its next k-block boundary, where a stale ∞ lane
// times the probabilities' zero padding is NaN — so their lanes at and
// past n are zeroed (amx.Growing.Truncate).
//
// Truncate is not signalled to an attached MemHost — the speculative
// path is gated to run without one (see EnableSpec).
func (c *KVCache) Truncate(n int) {
	if n < 0 || n > c.Len() {
		panic(fmt.Sprintf("llm: truncate to %d rows outside cache of %d", n, c.Len()))
	}
	if n == c.Len() {
		return
	}
	for li := range c.K {
		cols := c.K[li].Cols
		c.K[li] = tensor.FromSlice(n, cols, c.K[li].Data[:n*cols])
		c.V[li] = tensor.FromSlice(n, cols, c.V[li].Data[:n*cols])
		for _, g := range c.kImg[li] {
			g.Truncate(n)
		}
		for _, g := range c.vImg[li] {
			g.Truncate(n)
		}
	}
}

// VerifyStep scores len(tokens) consecutive positions in one
// cache-resumed pass — Prefill's multi-row causal masking applied
// mid-stream. Row i of the returned logits is bit-identical (on the
// BF16 path) to the logits DecodeStep would return after feeding
// tokens[:i+1] one by one, for the reasons forward gives. That
// equivalence is what makes greedy speculative acceptance exact
// (Sequence.SpecStep) and chunked prefill lossless
// (Sequence.AdvancePrefill).
//
// The pass appends all len(tokens) K/V rows; callers that keep only a
// prefix (speculative rejection) roll the rest back with
// KVCache.Truncate. Under INT8 the pass still computes, but its
// per-span activation scale spans all rows, so row i is NOT
// bit-identical to sequential decode — the speculative and chunked
// paths fall back to sequential execution there instead of calling
// this.
func (e *Executor) VerifyStep(cache *KVCache, tokens []int) (tensor.Matrix, error) {
	if cache == nil {
		return tensor.Matrix{}, fmt.Errorf("llm: verify on nil cache")
	}
	if len(tokens) == 0 {
		return tensor.Matrix{}, fmt.Errorf("llm: empty verify batch")
	}
	x, err := e.forward(context.TODO(), model.Decode, span{e, cache, tokens})
	if err != nil {
		return tensor.Matrix{}, err
	}
	return e.logits(x), nil
}
