package trace

import (
	"math"
	"testing"
)

func lowEntropySpec() LowEntropySpec {
	return LowEntropySpec{
		Vocab:      64,
		HotTokens:  4,
		RepeatProb: 0.8,
		MinLen:     12,
		MaxLen:     48,
	}
}

func TestLowEntropyDeterministicAndBounded(t *testing.T) {
	spec := lowEntropySpec()
	a, err := NewLowEntropyGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLowEntropyGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[int]bool{}
	for _, tok := range a.HotTokens() {
		if tok < 0 || tok >= spec.Vocab {
			t.Fatalf("hot token %d outside vocab [0,%d)", tok, spec.Vocab)
		}
		if hot[tok] {
			t.Fatalf("hot token %d sampled twice", tok)
		}
		hot[tok] = true
	}
	for i := 0; i < 50; i++ {
		ra, rb := a.Next(), b.Next()
		if ra.ID != rb.ID || ra.InputLen != rb.InputLen || ra.OutputLen != rb.OutputLen {
			t.Fatalf("request %d: streams diverged: %+v vs %+v", i, ra.Request, rb.Request)
		}
		if len(ra.Prompt) != len(rb.Prompt) {
			t.Fatalf("request %d: prompt lengths diverged", i)
		}
		if len(ra.Prompt) < spec.MinLen || len(ra.Prompt) > spec.MaxLen {
			t.Fatalf("request %d: prompt length %d outside [%d,%d]", i, len(ra.Prompt), spec.MinLen, spec.MaxLen)
		}
		if ra.OutputLen != 8 {
			t.Fatalf("request %d: default output %d, want 8", i, ra.OutputLen)
		}
		for j := range ra.Prompt {
			if ra.Prompt[j] != rb.Prompt[j] {
				t.Fatalf("request %d: prompts diverged at %d", i, j)
			}
			if !hot[ra.Prompt[j]] {
				t.Fatalf("request %d: token %d not in the hot set", i, ra.Prompt[j])
			}
		}
	}
}

// TestLowEntropyIsLowEntropy: the mode's whole point — its pooled token
// stream carries measurably less entropy than uniform draws over the
// same vocabulary, and the knobs move it in the right direction.
func TestLowEntropyIsLowEntropy(t *testing.T) {
	const reqs = 200
	sample := func(spec LowEntropySpec) float64 {
		g, err := NewLowEntropyGenerator(spec, 11)
		if err != nil {
			t.Fatal(err)
		}
		var prompts [][]int
		for _, r := range g.Batch(reqs) {
			prompts = append(prompts, r.Prompt)
		}
		return empiricalEntropy(prompts)
	}

	low := sample(lowEntropySpec())

	flat := lowEntropySpec()
	flat.HotTokens = flat.Vocab
	flat.RepeatProb = 0
	high := sample(flat)

	// Uniform over 64 tokens is 6 bits; the hot-4 repeat-heavy stream
	// cannot exceed 2 bits (4 symbols) and repetition pushes it lower.
	if low >= 2 {
		t.Fatalf("low-entropy stream measured %.2f bits, want <2", low)
	}
	if high <= 5 {
		t.Fatalf("uniform stream measured %.2f bits, want >5", high)
	}
	if low >= high {
		t.Fatalf("low-entropy %.2f bits not below uniform %.2f bits", low, high)
	}

	// More repetition ⇒ less entropy, hot set fixed.
	sticky := lowEntropySpec()
	sticky.RepeatProb = 0.95
	if got := sample(sticky); got >= low {
		t.Errorf("RepeatProb 0.95 measured %.2f bits, want below %.2f", got, low)
	}
}

func TestLowEntropyValidation(t *testing.T) {
	bad := []LowEntropySpec{
		{Vocab: 1, HotTokens: 1, RepeatProb: 0.5, MinLen: 1, MaxLen: 2},
		{Vocab: 64, HotTokens: 0, RepeatProb: 0.5, MinLen: 1, MaxLen: 2},
		{Vocab: 64, HotTokens: 65, RepeatProb: 0.5, MinLen: 1, MaxLen: 2},
		{Vocab: 64, HotTokens: 4, RepeatProb: -0.1, MinLen: 1, MaxLen: 2},
		{Vocab: 64, HotTokens: 4, RepeatProb: 1.1, MinLen: 1, MaxLen: 2},
		{Vocab: 64, HotTokens: 4, RepeatProb: 0.5, MinLen: 0, MaxLen: 2},
		{Vocab: 64, HotTokens: 4, RepeatProb: 0.5, MinLen: 3, MaxLen: 2},
		{Vocab: 64, HotTokens: 4, RepeatProb: 0.5, MinLen: 1, MaxLen: 2, OutputTokens: -1},
	}
	for i, spec := range bad {
		if _, err := NewLowEntropyGenerator(spec, 1); err == nil {
			t.Errorf("spec %d (%+v) accepted, want error", i, spec)
		}
	}
}

// empiricalEntropy returns the order-0 Shannon entropy (bits per token)
// of the pooled prompt token stream.
func empiricalEntropy(prompts [][]int) float64 {
	counts := map[int]int{}
	total := 0
	for _, p := range prompts {
		for _, t := range p {
			counts[t]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}
