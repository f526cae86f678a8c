package llm

import (
	"context"
	"fmt"

	"github.com/lia-sim/lia/internal/team"
)

// Sequence is one in-flight generation: a forked executor (private Stats
// and scratch, shared packed-weight caches), its KV cache, and the next
// token to emit. It is the unit the serving gateway's iteration-level
// batcher schedules — a sequence advances one token per StepBatch call,
// so the running batch's membership can change between decode iterations
// (Orca-style continuous batching) while each sequence's tokens stay
// bit-identical to a solo Generate call.
//
// A Sequence is single-goroutine: concurrent Step calls on one Sequence
// race, but different Sequences step concurrently (that is what
// StepBatch does).
type Sequence struct {
	e       *Executor
	cache   *KVCache
	pending int // next token to emit, already decoded
	out     []int
	target  int
	// prompt is retained (aliased, not copied) for the two paths that
	// need it after construction: chunked prefill computes it piecewise
	// and speculative decoding prefills the draft over it.
	prompt []int
	// prefillPos counts prompt tokens whose KV rows are in the cache;
	// below len(prompt) the sequence is still prefilling (chunked mode)
	// and cannot Step yet.
	prefillPos int
	// chunk is the prefill chunk size (the whole uncached remainder when
	// the prompt prefills in one pass).
	chunk    int
	spec     *specState
	released bool
}

// NewSequence prefills the prompt on a forked executor in one pass and
// returns a sequence that will emit exactly n tokens (see
// NewSequenceChunked for the shape rule).
func (e *Executor) NewSequence(prompt []int, n int) (*Sequence, error) {
	return e.NewSequenceChunked(prompt, n, 0, nil)
}

// Step emits the pending token and, unless it was the sequence's last,
// decodes the next one. The emitted stream over target steps is
// bit-identical to Generate(prompt, target) — the final decode is
// skipped exactly as Generate skips it. Stepping a finished sequence is
// an error.
func (s *Sequence) Step() (int, error) {
	if s.Prefilling() {
		return 0, fmt.Errorf("llm: sequence is still prefilling (%d/%d prompt tokens)", s.prefillPos, len(s.prompt))
	}
	if s.Done() {
		return 0, fmt.Errorf("llm: sequence already emitted its %d tokens", s.target)
	}
	tok := s.pending
	s.out = append(s.out, tok)
	if len(s.out) < s.target {
		next, err := s.e.nextToken(s.cache, tok)
		if err != nil {
			return 0, err
		}
		s.pending = next
	}
	return tok, nil
}

// Done reports whether the sequence has emitted all its tokens.
func (s *Sequence) Done() bool { return len(s.out) >= s.target }

// Output returns the tokens emitted so far (aliased, not copied).
func (s *Sequence) Output() []int { return s.out }

// Emitted returns how many tokens have been emitted.
func (s *Sequence) Emitted() int { return len(s.out) }

// Target returns how many tokens the sequence will emit in total.
func (s *Sequence) Target() int { return s.target }

// Stats returns the fork's dispatch counters (prefill plus all steps so
// far).
func (s *Sequence) Stats() Stats { return s.e.Stats }

// Release returns the sequence's KV-cache storage to the executor's
// MemHost (a no-op without one). The serving gateway calls it whenever a
// sequence leaves the batch — retirement, preemption, cancellation, or
// failure — so tier-hosted KV pages never outlive the request. Idempotent;
// the sequence must not be stepped afterwards.
func (s *Sequence) Release() {
	if s.released {
		return
	}
	s.released = true
	s.e.RetireCache(s.cache)
	if s.spec != nil {
		s.spec.draft.RetireCache(s.spec.dcache)
	}
}

// StepBatch advances every sequence one decode step in parallel on the
// worker team — one iteration of continuous batching. Each
// sequence owns its executor fork and KV cache, so the only shared state
// is the immutable packed-weight cache; results are bit-identical to
// stepping the sequences one by one. Finished sequences are rejected,
// matching the scheduler contract that retired work leaves the batch
// immediately.
func StepBatch(ctx context.Context, seqs []*Sequence) error {
	if len(seqs) == 0 {
		return fmt.Errorf("llm: empty step batch")
	}
	if err := team.RunErr(ctx, len(seqs), func(i int) error {
		_, err := seqs[i].Step()
		return err
	}); err != nil {
		return fmt.Errorf("llm: %w", err)
	}
	return nil
}
