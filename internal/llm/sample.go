package llm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/lia-sim/lia/internal/tensor"
)

// Sampler selects the next token from a logit row. Implementations must
// be deterministic given their own state (seeded RNGs).
type Sampler interface {
	// Sample returns a token index given the vocabulary logits.
	Sample(logits []float32) int
}

// GreedySampler picks the argmax — the decoding the paper's latency
// benchmarks use.
type GreedySampler struct{}

// Sample implements Sampler.
func (GreedySampler) Sample(logits []float32) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range logits {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// TopKSampler samples from the K most likely tokens after temperature
// scaling — the stochastic decoding interactive applications use.
type TopKSampler struct {
	// K bounds the candidate set (≥1).
	K int
	// Temperature scales the logits (>0; 1 = unscaled).
	Temperature float64
	rng         *rand.Rand
}

// NewTopKSampler builds a deterministic top-K sampler.
func NewTopKSampler(k int, temperature float64, seed int64) (*TopKSampler, error) {
	if k < 1 {
		return nil, fmt.Errorf("llm: top-k sampler needs K ≥ 1, got %d", k)
	}
	if temperature <= 0 {
		return nil, fmt.Errorf("llm: temperature must be positive, got %v", temperature)
	}
	return &TopKSampler{K: k, Temperature: temperature, rng: rand.New(rand.NewSource(seed))}, nil
}

// Sample implements Sampler.
func (s *TopKSampler) Sample(logits []float32) int {
	type cand struct {
		idx int
		v   float64
	}
	cands := make([]cand, len(logits))
	for i, v := range logits {
		cands[i] = cand{i, float64(v) / s.Temperature}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].v > cands[b].v })
	k := s.K
	if k > len(cands) {
		k = len(cands)
	}
	cands = cands[:k]
	// Stable softmax over the candidates.
	maxV := cands[0].v
	var sum float64
	weights := make([]float64, k)
	for i, c := range cands {
		w := math.Exp(c.v - maxV)
		weights[i] = w
		sum += w
	}
	r := s.rng.Float64() * sum
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return cands[i].idx
		}
	}
	return cands[k-1].idx
}

// GenerateWith decodes n tokens after the prompt using the sampler
// (Generate is GenerateWith(GreedySampler{})).
func (e *Executor) GenerateWith(prompt []int, n int, s Sampler) ([]int, error) {
	if s == nil {
		s = GreedySampler{}
	}
	logits, cache, err := e.Prefill(prompt)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	next := s.Sample(logits.Row(logits.Rows - 1))
	for i := 0; i < n; i++ {
		out = append(out, next)
		if i == n-1 {
			break
		}
		var step tensor.Matrix
		step, err = e.DecodeStep(cache, next)
		if err != nil {
			return nil, err
		}
		next = s.Sample(step.Row(0))
	}
	return out, nil
}
