package llm

import (
	"fmt"

	"github.com/lia-sim/lia/internal/model"
)

// NewSequenceChunked is NewSequence with the prompt prefilled in fixed-
// size chunks instead of one monolithic pass — the Sarathi-style
// mechanism that lets the scheduler interleave long-prompt prefill with
// decode rounds so a long arrival stops stalling everyone else's
// inter-token latency. The constructor only validates and seeds the
// cache; drive AdvancePrefill until it reports done (one call per
// scheduling round), then Step/SpecStep as usual.
//
// Chunked prefill is bit-identical to the monolithic pass for the same
// reason PrefillFrom is: each chunk is a cache-resumed causally-masked
// pass whose rows see exactly the positions the full prefill would
// (kernels are row-independent, RoPE rotates by absolute position).
// Degenerate chunk sizes fall back to a monolithic PrefillFrom: chunk
// ≤ 0, or chunk ≥ the uncached prompt remainder (nothing to split).
// INT8 mode also falls back — per-tensor activation scales couple all
// rows of a pass, so splitting the prompt would change the numerics
// (the same argument PrefillFrom documents).
//
// seed resumes from a cached KV prefix exactly as NewSequenceFrom does;
// chunking applies to the uncached remainder.
func (e *Executor) NewSequenceChunked(prompt []int, n, chunk int, seed *KVSeed) (*Sequence, error) {
	if n < 1 {
		return nil, fmt.Errorf("llm: sequence must emit at least one token, got %d", n)
	}
	if len(prompt)+n-1 > e.Model.Cfg.MaxSeqLen {
		return nil, fmt.Errorf("llm: prompt %d + %d generated tokens exceeds max sequence length %d",
			len(prompt), n, e.Model.Cfg.MaxSeqLen)
	}
	cached := seed.Tokens()
	if e.tier.rowCoupled || chunk <= 0 || chunk >= len(prompt)-cached {
		return e.NewSequenceFrom(prompt, n, seed)
	}
	if seed != nil {
		if err := seed.validate(len(e.Model.Layers), e.Model.Cfg.KVDim()); err != nil {
			return nil, err
		}
	}
	sub := e.fork()
	cache := sub.NewCache()
	if seed != nil {
		for _, seg := range seed.Segments {
			for li := range e.Model.Layers {
				cache.Append(li, seg.K[li], seg.V[li])
			}
		}
	}
	return &Sequence{
		e:          sub,
		cache:      cache,
		pending:    -1, // undefined until the last chunk computes it
		out:        make([]int, 0, n),
		target:     n,
		prompt:     prompt,
		prefillPos: cached,
		chunk:      chunk,
	}, nil
}

// Prefilling reports whether prompt chunks remain to be computed. Step
// and SpecStep reject a prefilling sequence; drive AdvancePrefill first.
func (s *Sequence) Prefilling() bool { return s.prefillPos < len(s.prompt) }

// PrefillPos returns how many prompt tokens are prefilled so far.
func (s *Sequence) PrefillPos() int { return s.prefillPos }

// AdvancePrefill computes the next prompt chunk through a cache-resumed
// causal pass, reporting true once the prompt is fully prefilled (the
// call that finishes also computes the first pending token, so TTFT is
// the moment AdvancePrefill first returns true). Calling it on a ready
// sequence is a no-op returning true.
func (s *Sequence) AdvancePrefill() (bool, error) {
	if !s.Prefilling() {
		return true, nil
	}
	end := s.prefillPos + s.chunk
	if end > len(s.prompt) {
		end = len(s.prompt)
	}
	x, err := s.e.extend(s.cache, s.prompt[s.prefillPos:end], model.Prefill)
	if err != nil {
		return false, err
	}
	s.prefillPos = end
	if s.prefillPos < len(s.prompt) {
		return false, nil
	}
	// Last chunk: only now is the LM head worth paying for, and only for
	// the prompt's last position.
	s.pending = s.e.logits(lastRow(x)).ArgmaxRow(0)
	return true, nil
}
