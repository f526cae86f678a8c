package llm

import (
	"context"
	"fmt"

	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/tensor"
)

// KVSegment is a contiguous run of cached KV rows: one K and one V matrix
// per layer, all with the same row count (the segment's token span). The
// prefix cache (internal/kvprefix) hands sequences of segments — one per
// radix-tree node on the matched path — and PrefillFrom replays them into
// a fresh cache. Matrices may be views into shared storage; PrefillFrom
// copies rows in, never writes through them.
type KVSegment struct {
	K, V []tensor.Matrix
}

// Tokens returns the segment's token span (0 for an empty segment).
func (s KVSegment) Tokens() int {
	if len(s.K) == 0 {
		return 0
	}
	return s.K[0].Rows
}

// KVSeed is the cached KV prefix a sequence resumes from, in prompt
// order.
type KVSeed struct {
	Segments []KVSegment
}

// Tokens returns the total cached prefix length.
func (s *KVSeed) Tokens() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, seg := range s.Segments {
		n += seg.Tokens()
	}
	return n
}

// validate checks every segment against the model shape.
func (s *KVSeed) validate(layers, kvDim int) error {
	for i, seg := range s.Segments {
		if len(seg.K) != layers || len(seg.V) != layers {
			return fmt.Errorf("llm: seed segment %d has %d/%d layer matrices, model has %d layers",
				i, len(seg.K), len(seg.V), layers)
		}
		rows := seg.K[0].Rows
		for li := 0; li < layers; li++ {
			if seg.K[li].Rows != rows || seg.V[li].Rows != rows {
				return fmt.Errorf("llm: seed segment %d has ragged rows across layers", i)
			}
			if seg.K[li].Cols != kvDim || seg.V[li].Cols != kvDim {
				return fmt.Errorf("llm: seed segment %d has KV width %d, model wants %d",
					i, seg.K[li].Cols, kvDim)
			}
		}
	}
	return nil
}

// PrefillFrom is Prefill resuming from a cached prefix: the seed's KV
// rows (the first seed.Tokens() prompt positions, as produced by an
// earlier prefill of the same model over the same tokens) are copied into
// a fresh cache and only the remaining suffix is computed. On the BF16
// path the returned logits and cache are bit-identical to a full
// Prefill(prompt): the AMX and dense kernels are row-independent, causal
// masking makes suffix rows attend to exactly the positions a full
// prefill would, and RoPE rotates by absolute position — so skipping the
// prefix changes no suffix value. Differential tests pin this.
//
// INT8 mode validates the seed like every tier, then drops it and
// prefills the whole prompt: activation quantization is per span
// (quant.Linear takes the min/max over every row of the sequence's span
// in the pass), so each row's quantized value depends on which other rows
// of its sequence share its pass — a seeded suffix would see different
// scales than the full prompt did and diverge. The prefix cache still provides its capacity
// win there (shared blocks are still counted once); only the compute skip
// is BF16-only.
//
// A nil or empty seed is exactly Prefill. The seed must be strictly
// shorter than the prompt — resuming with nothing left to compute would
// leave no last-position logits to return. The returned cache holds
// MaxSeqLen rows, since how far its caller will decode is unknown.
func (e *Executor) PrefillFrom(prompt []int, seed *KVSeed) (tensor.Matrix, *KVCache, error) {
	return e.prefill(prompt, seed, e.Model.Cfg.MaxSeqLen)
}

// prefill is PrefillFrom into a cache of capRows rows.
func (e *Executor) prefill(prompt []int, seed *KVSeed, capRows int) (tensor.Matrix, *KVCache, error) {
	cache, cached, err := e.seeded(prompt, seed, capRows)
	if err != nil {
		return tensor.Matrix{}, nil, err
	}
	x, err := e.forward(context.TODO(), model.Prefill, span{e, cache, prompt[cached:]})
	if err != nil {
		e.RetireCache(cache)
		return tensor.Matrix{}, nil, err
	}
	return e.logits(rowRange(x, x.Rows-1, x.Rows)), cache, nil
}

// seeded validates seed against the prompt and the model, then returns a
// fresh cache of capRows rows holding the seed's rows and how many prompt
// positions they cover — the first step of every prefill. A row-coupled
// tier drops a valid seed (see PrefillFrom): its cache starts empty.
func (e *Executor) seeded(prompt []int, seed *KVSeed, capRows int) (*KVCache, int, error) {
	if len(prompt) == 0 {
		return nil, 0, fmt.Errorf("llm: empty prompt")
	}
	cfg := e.Model.Cfg
	cached := seed.Tokens()
	if cached > 0 {
		if cached >= len(prompt) {
			return nil, 0, fmt.Errorf("llm: seed covers %d of %d prompt tokens — nothing left to prefill",
				cached, len(prompt))
		}
		if cached > capRows {
			return nil, 0, fmt.Errorf("llm: seed length %d exceeds the KV cache's capacity of %d rows", cached, capRows)
		}
		if err := seed.validate(len(e.Model.Layers), cfg.KVDim()); err != nil {
			return nil, 0, err
		}
	}
	cache := e.newCache(capRows)
	if cached == 0 || e.tier.rowCoupled {
		return cache, 0, nil
	}
	for _, seg := range seed.Segments {
		for li := range e.Model.Layers {
			cache.Append(li, seg.Tokens(), seg.K[li].Data, seg.V[li].Data, seg.K[li].Cols)
		}
	}
	return cache, cached, nil
}

// ExportKV deep-copies cache rows [from, to) into a standalone segment —
// what the gateway inserts into the prefix tree after a prefill. The
// copy decouples the tree's data from the sequence's in-place growing
// cache.
func (e *Executor) ExportKV(c *KVCache, from, to int) (KVSegment, error) {
	if c == nil {
		return KVSegment{}, fmt.Errorf("llm: export from nil cache")
	}
	if from < 0 || to > c.Len() || from >= to {
		return KVSegment{}, fmt.Errorf("llm: export range [%d, %d) outside cache of %d rows", from, to, c.Len())
	}
	kvDim := e.Model.Cfg.KVDim()
	seg := KVSegment{}
	for li := range e.Model.Layers {
		k := tensor.New(to-from, kvDim)
		copy(k.Data, c.K[li].Data[from*kvDim:to*kvDim])
		v := tensor.New(to-from, kvDim)
		copy(v.Data, c.V[li].Data[from*kvDim:to*kvDim])
		seg.K = append(seg.K, k)
		seg.V = append(seg.V, v)
	}
	return seg, nil
}

// NewSequenceFrom is NewSequence resuming from a cached KV prefix (see
// PrefillFrom for the exact semantics, including the INT8 rule). The
// emitted tokens are bit-identical to NewSequence(prompt, n).
func (e *Executor) NewSequenceFrom(prompt []int, n int, seed *KVSeed) (*Sequence, error) {
	return e.NewSequenceChunked(prompt, n, 0, seed)
}

// ExportKV deep-copies the sequence's cache rows [from, to) (the
// gateway's insert path after prefill).
func (s *Sequence) ExportKV(from, to int) (KVSegment, error) {
	return s.e.ExportKV(s.cache, from, to)
}
