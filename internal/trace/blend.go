package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// BlendGenerator interleaves two trace families into one arrival
// stream: each request is independently a Code draw with probability
// `ratio` and a Conversation draw otherwise — the mixed code/chat
// traffic a production front door actually sees, where short completion
// bursts share a queue with long chat generations. Like Generator it is
// deterministic per seed and NOT safe for concurrent use.
type BlendGenerator struct {
	rng      *rand.Rand
	ratio    float64
	minIn    int
	maxIn    int
	produced int
}

// NewBlendGenerator returns a generator mixing Code requests (with
// probability ratio ∈ [0, 1]) into a Conversation stream. Input lengths
// are uniform on [minIn, maxIn] for both families; output lengths are
// geometric with each family's own mean, so the blended output-length
// distribution is the ratio-weighted mixture.
func NewBlendGenerator(ratio float64, minIn, maxIn int, seed int64) (*BlendGenerator, error) {
	if ratio < 0 || ratio > 1 {
		return nil, fmt.Errorf("trace: blend ratio %g outside [0, 1]", ratio)
	}
	if minIn < 1 || maxIn < minIn {
		return nil, fmt.Errorf("trace: invalid input-length range [%d, %d]", minIn, maxIn)
	}
	return &BlendGenerator{
		rng:   rand.New(rand.NewSource(seed)),
		ratio: ratio,
		minIn: minIn,
		maxIn: maxIn,
	}, nil
}

// Next returns the next request: one uniform draws the family, one the
// input length, one the geometric output length (the same closed-form
// inverse-CDF sampling Generator.Next uses) — exactly three variates
// per request, so per-seed streams stay deterministic.
func (g *BlendGenerator) Next() Request {
	g.produced++
	kind := Conversation
	if g.rng.Float64() < g.ratio {
		kind = Code
	}
	in := g.minIn + g.rng.Intn(g.maxIn-g.minIn+1)
	p := 1 / float64(kind.MeanOutput())
	u := g.rng.Float64()
	out := 1 + int(math.Log(1-u)/math.Log(1-p))
	return Request{ID: g.produced, InputLen: in, OutputLen: out, Kind: kind}
}

// Batch draws n requests.
func (g *BlendGenerator) Batch(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
