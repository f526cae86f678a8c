package llm

import (
	"context"
	"fmt"

	"github.com/lia-sim/lia/internal/model"
)

// NewSequenceChunked prefills the prompt on a forked executor in fixed-
// size chunks and returns a sequence that will emit exactly n tokens —
// the Sarathi-style mechanism that lets the scheduler interleave
// long-prompt prefill with decode rounds so a long arrival stops
// stalling everyone else's inter-token latency. The shape is validated
// up front — the serving admission path must reject oversized work
// before reserving batch slots, not discover it mid-decode: prefill
// occupies len(prompt) positions and the n-1 decode steps one more each,
// so len(prompt)+n-1 must fit MaxSeqLen. The sequence's cache holds
// min(len(prompt)+n, MaxSeqLen) rows — what plain and speculative decode
// can reach (see reach), not MaxSeqLen.
//
// seed resumes from a cached KV prefix (see PrefillFrom, including the
// INT8 rule); chunking applies to the uncached remainder. The
// constructor validates and seeds the cache; drive AdvancePrefill until
// it reports done (one call per scheduling round), then Step/SpecStep as
// usual. When one chunk covers the remainder — chunk ≤ 0, chunk ≥ the
// remainder, or INT8 mode, whose per-span activation scale couples all
// of the prompt's rows in a pass so that splitting it would change the
// numerics
// — the constructor runs that one AdvancePrefill itself and returns a
// ready sequence.
//
// Chunked prefill is bit-identical to the monolithic pass for the same
// reason PrefillFrom is: each chunk is a cache-resumed causally-masked
// pass whose rows see exactly the positions the full prefill would.
func (e *Executor) NewSequenceChunked(prompt []int, n, chunk int, seed *KVSeed) (*Sequence, error) {
	if n < 1 {
		return nil, fmt.Errorf("llm: sequence must emit at least one token, got %d", n)
	}
	if len(prompt)+n-1 > e.Model.Cfg.MaxSeqLen {
		return nil, fmt.Errorf("llm: prompt %d + %d generated tokens exceeds max sequence length %d",
			len(prompt), n, e.Model.Cfg.MaxSeqLen)
	}
	sub := e.fork()
	cache, cached, err := sub.seeded(prompt, seed, sub.reach(len(prompt), n))
	if err != nil {
		return nil, err
	}
	rest := len(prompt) - cached
	if sub.tier.rowCoupled || chunk <= 0 || chunk > rest {
		chunk = rest
	}
	s := &Sequence{
		e:          sub,
		cache:      cache,
		pending:    -1, // undefined until the last chunk computes it
		out:        make([]int, 0, n),
		target:     n,
		prompt:     prompt,
		prefillPos: cached,
		chunk:      chunk,
	}
	if chunk == rest {
		if _, err := s.AdvancePrefill(); err != nil {
			s.Release()
			return nil, err
		}
	}
	return s, nil
}

// Prefilling reports whether prompt chunks remain to be computed. Step
// and SpecStep reject a prefilling sequence; drive AdvancePrefill first.
func (s *Sequence) Prefilling() bool { return s.prefillPos < len(s.prompt) }

// AdvancePrefill computes the next prompt chunk through a cache-resumed
// causal pass, reporting true once the prompt is fully prefilled (the
// call that finishes also computes the first pending token, so TTFT is
// the moment AdvancePrefill first returns true). Calling it on a ready
// sequence is a no-op returning true. The fork lets go of the chunk-sized
// workspace before returning: a sequence between passes — decoding in
// fused rounds, where its fork only attends, or waiting for its turn —
// keeps no prompt-sized buffer.
func (s *Sequence) AdvancePrefill() (bool, error) {
	if !s.Prefilling() {
		return true, nil
	}
	defer func() { s.e.ws = workspace{} }()
	end := min(s.prefillPos+s.chunk, len(s.prompt))
	x, err := s.e.forward(context.TODO(), model.Prefill, span{s.e, s.cache, s.prompt[s.prefillPos:end]})
	if err != nil {
		return false, err
	}
	s.prefillPos = end
	if s.prefillPos < len(s.prompt) {
		return false, nil
	}
	// Last chunk: only now is the LM head worth paying for, and only for
	// the prompt's last position.
	s.pending = s.e.logits(rowRange(x, x.Rows-1, x.Rows)).ArgmaxRow(0)
	return true, nil
}
