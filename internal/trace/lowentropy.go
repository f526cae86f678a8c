package trace

import (
	"fmt"
	"math/rand"
)

// LowEntropySpec shapes a draft-friendly workload: prompts whose token
// streams are highly predictable — a small hot vocabulary plus frequent
// immediate repetition — so a cheap draft model agrees with the target
// often and speculative decoding sees realistic (high) acceptance rates.
// Real low-entropy traffic looks like this too: templated code, log
// lines, and boilerplate-heavy chat all reuse a narrow token set.
type LowEntropySpec struct {
	// Vocab bounds token ids to [0, Vocab).
	Vocab int
	// HotTokens is the size of the hot subset the stream draws from
	// (1 ≤ HotTokens ≤ Vocab). Smaller ⇒ lower entropy.
	HotTokens int
	// RepeatProb is the probability each token repeats its predecessor
	// instead of drawing fresh from the hot set. Higher ⇒ lower entropy.
	RepeatProb float64
	// MinLen and MaxLen bound the prompt length (uniform draw, 1 ≤ min ≤ max).
	MinLen, MaxLen int
	// OutputTokens is the fixed generation length per request (default 8).
	OutputTokens int
}

func (s LowEntropySpec) withDefaults() LowEntropySpec {
	if s.OutputTokens == 0 {
		s.OutputTokens = 8
	}
	return s
}

func (s LowEntropySpec) validate() error {
	if s.Vocab < 2 {
		return fmt.Errorf("trace: vocabulary %d too small", s.Vocab)
	}
	if s.HotTokens < 1 || s.HotTokens > s.Vocab {
		return fmt.Errorf("trace: hot set %d outside [1, %d]", s.HotTokens, s.Vocab)
	}
	if s.RepeatProb < 0 || s.RepeatProb > 1 {
		return fmt.Errorf("trace: repeat probability %g outside [0,1]", s.RepeatProb)
	}
	if s.MinLen < 1 || s.MaxLen < s.MinLen {
		return fmt.Errorf("trace: invalid prompt-length range [%d, %d]", s.MinLen, s.MaxLen)
	}
	if s.OutputTokens < 1 {
		return fmt.Errorf("trace: OutputTokens must be ≥1, got %d", s.OutputTokens)
	}
	return nil
}

// LowEntropyGenerator produces a deterministic draft-friendly request
// stream. Like Generator it is NOT safe for concurrent use — give each
// goroutine its own instance.
type LowEntropyGenerator struct {
	rng      *rand.Rand
	spec     LowEntropySpec
	hot      []int
	produced int
}

// NewLowEntropyGenerator materializes the hot token subset from the
// seed; the same (spec, seed) pair always yields the same stream.
func NewLowEntropyGenerator(spec LowEntropySpec, seed int64) (*LowEntropyGenerator, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := &LowEntropyGenerator{rng: rng, spec: spec}
	// Sample the hot subset without replacement from [0, Vocab) so hot
	// ids are spread across the vocabulary rather than packed at 0.
	perm := rng.Perm(spec.Vocab)
	g.hot = append(g.hot, perm[:spec.HotTokens]...)
	return g, nil
}

// HotTokens returns the hot subset (callers must not mutate).
func (g *LowEntropyGenerator) HotTokens() []int { return g.hot }

// Next draws one request: a uniform prompt length, then a token stream
// where each position either repeats its predecessor (RepeatProb) or
// draws fresh from the hot subset — a two-state chain whose entropy the
// spec controls directly.
func (g *LowEntropyGenerator) Next() PromptRequest {
	g.produced++
	n := g.spec.MinLen + g.rng.Intn(g.spec.MaxLen-g.spec.MinLen+1)
	prompt := make([]int, n)
	prompt[0] = g.hot[g.rng.Intn(len(g.hot))]
	for i := 1; i < n; i++ {
		if g.rng.Float64() < g.spec.RepeatProb {
			prompt[i] = prompt[i-1]
		} else {
			prompt[i] = g.hot[g.rng.Intn(len(g.hot))]
		}
	}
	return PromptRequest{
		Request: Request{ID: g.produced, InputLen: n, OutputLen: g.spec.OutputTokens},
		Prompt:  prompt,
	}
}

// Batch draws n requests.
func (g *LowEntropyGenerator) Batch(n int) []PromptRequest {
	out := make([]PromptRequest, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
