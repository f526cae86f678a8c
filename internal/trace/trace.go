// Package trace generates synthetic LLM inference workloads with the
// statistics the paper takes from the Azure LLM inference traces (§7,
// "Token sequence lengths"): input token lengths uniformly distributed
// between 32 and the model-defined maximum, and output lengths clustered
// around 32 tokens (code traces) or 256 tokens (conversation traces).
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind selects which trace family a workload mimics.
type Kind int

// Trace families.
const (
	// Code mimics the code-completion trace (average output 32 tokens).
	Code Kind = iota
	// Conversation mimics the chat trace (average output 256 tokens).
	Conversation
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Code {
		return "code"
	}
	return "conversation"
}

// MeanOutput returns the trace family's average output length.
func (k Kind) MeanOutput() int {
	if k == Code {
		return 32
	}
	return 256
}

// Request is one inference request.
type Request struct {
	// ID numbers the request within its generator.
	ID int
	// InputLen is the prompt length in tokens.
	InputLen int
	// OutputLen is the number of tokens to generate.
	OutputLen int
	// Kind is the trace family the request was drawn from (meaningful
	// for blended streams, where families interleave).
	Kind Kind
}

// Generator produces deterministic synthetic requests: the same seed
// always yields the same stream. It is NOT safe for concurrent use —
// the draws mutate the unsynchronized rng, and interleaving would also
// destroy per-seed reproducibility. Give each goroutine its own
// Generator (same seed ⇒ same stream makes that cheap).
type Generator struct {
	rng      *rand.Rand
	kind     Kind
	minIn    int
	maxIn    int
	produced int
}

// NewGenerator returns a generator for the given trace family. Input
// lengths are drawn uniformly from [minIn, maxIn], matching the paper's
// observation that Azure input lengths are uniformly distributed.
func NewGenerator(kind Kind, minIn, maxIn int, seed int64) (*Generator, error) {
	if minIn < 1 || maxIn < minIn {
		return nil, fmt.Errorf("trace: invalid input-length range [%d, %d]", minIn, maxIn)
	}
	return &Generator{
		rng:   rand.New(rand.NewSource(seed)),
		kind:  kind,
		minIn: minIn,
		maxIn: maxIn,
	}, nil
}

// Next returns the next request. Output lengths follow a geometric
// distribution on {1, 2, ...} with the family mean (success probability
// p = 1/mean) — a heavy-ish tail like real conversation traces.
//
// The draw is closed-form inverse-CDF sampling, X = 1 + ⌊ln(1−U)/ln(1−p)⌋
// with U ∈ [0, 1), so 1−U ∈ (0, 1] keeps the logarithm finite and U=0
// lands on the minimum of one token. E[X] = 1/p = mean exactly. The
// previous per-trial Bernoulli loop cost O(mean) RNG draws per request
// and silently truncated the tail at 8×mean, biasing the sample mean
// low; this form is O(1) and untruncated, and consumes exactly one
// uniform variate so per-seed request streams stay deterministic.
func (g *Generator) Next() Request {
	g.produced++
	in := g.minIn + g.rng.Intn(g.maxIn-g.minIn+1)
	p := 1 / float64(g.kind.MeanOutput())
	u := g.rng.Float64()
	out := 1 + int(math.Log(1-u)/math.Log(1-p))
	return Request{ID: g.produced, InputLen: in, OutputLen: out, Kind: g.kind}
}

// Batch draws n requests.
func (g *Generator) Batch(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Workload is a fixed-shape inference job: the (B, L_in, L_out)
// configuration every experiment in §7 is parameterized by.
type Workload struct {
	// Batch is the batch size B.
	Batch int
	// InputLen is L_in.
	InputLen int
	// OutputLen is L_out.
	OutputLen int
}

// Validate reports shape errors.
func (w Workload) Validate() error {
	if w.Batch < 1 || w.InputLen < 1 || w.OutputLen < 1 {
		return fmt.Errorf("trace: workload %+v has non-positive dimensions", w)
	}
	return nil
}

// TotalTokens returns the number of generated tokens (B × L_out).
func (w Workload) TotalTokens() int { return w.Batch * w.OutputLen }

// String implements fmt.Stringer.
func (w Workload) String() string {
	return fmt.Sprintf("B=%d Lin=%d Lout=%d", w.Batch, w.InputLen, w.OutputLen)
}

// RepresentativeInputs returns the paper's L_in evaluation grid for a
// given output length: 32 up to the model maximum (2048) minus L_out
// (2016 when L_out=32, 1792 when L_out=256).
func RepresentativeInputs(maxSeqLen, outputLen int) []int {
	grid := []int{32, 256, 512, 1024}
	lMax := maxSeqLen - outputLen
	if lMax > grid[len(grid)-1] {
		grid = append(grid, lMax)
	}
	var out []int
	for _, l := range grid {
		if l <= lMax {
			out = append(out, l)
		}
	}
	return out
}

// RepresentativeOutputs returns the paper's two L_out settings.
func RepresentativeOutputs() []int { return []int{32, 256} }
