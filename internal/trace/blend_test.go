package trace

import (
	"math"
	"testing"
)

// The statistical contract for blended streams: over a large sample the
// family mix matches the ratio within binomial noise, each family's
// conditional output mean matches its trace, and the overall mean
// matches the ratio-weighted mixture. Deterministic seed, so the bounds
// are tight without flaking.
func TestBlendGeneratorStatistics(t *testing.T) {
	const (
		n     = 10000
		ratio = 0.5
	)
	g, err := NewBlendGenerator(ratio, 32, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	var codeN, convN int
	var codeOut, convOut float64
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.InputLen < 32 || r.InputLen > 512 {
			t.Fatalf("input length %d outside [32, 512]", r.InputLen)
		}
		if r.OutputLen < 1 {
			t.Fatalf("output length %d < 1", r.OutputLen)
		}
		switch r.Kind {
		case Code:
			codeN++
			codeOut += float64(r.OutputLen)
		case Conversation:
			convN++
			convOut += float64(r.OutputLen)
		default:
			t.Fatalf("unknown kind %v", r.Kind)
		}
	}
	// Family mix: 3σ binomial bound around the ratio.
	frac := float64(codeN) / n
	sigma := math.Sqrt(ratio * (1 - ratio) / n)
	if math.Abs(frac-ratio) > 3*sigma {
		t.Errorf("code fraction %.4f outside %.2f ± %.4f", frac, ratio, 3*sigma)
	}
	// Conditional means: geometric sd ≈ mean, so a 4·mean/√n bound.
	codeMean := codeOut / float64(codeN)
	if math.Abs(codeMean-32) > 4*32/math.Sqrt(float64(codeN)) {
		t.Errorf("code output mean %.2f, want ≈32", codeMean)
	}
	convMean := convOut / float64(convN)
	if math.Abs(convMean-256) > 4*256/math.Sqrt(float64(convN)) {
		t.Errorf("conversation output mean %.2f, want ≈256", convMean)
	}
	// Blended mean: mixture sd ≈ 214 at ratio 0.5, so 4σ/√n ≈ 8.6.
	blended := (codeOut + convOut) / n
	want := blendMeanOutput(ratio)
	sd := math.Sqrt(ratio*(32*32) + (1-ratio)*(256*256) + ratio*(1-ratio)*(256-32)*(256-32))
	if math.Abs(blended-want) > 4*sd/math.Sqrt(n) {
		t.Errorf("blended output mean %.2f, want ≈%.1f", blended, want)
	}
}

// Determinism and edge ratios: the same seed replays the same stream,
// and ratios 0 / 1 degenerate to the pure families.
func TestBlendGeneratorDeterminismAndEdges(t *testing.T) {
	a, _ := NewBlendGenerator(0.3, 32, 128, 42)
	b, _ := NewBlendGenerator(0.3, 32, 128, 42)
	for i := 0; i < 200; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	pure, _ := NewBlendGenerator(0, 32, 128, 1)
	for _, r := range pure.Batch(100) {
		if r.Kind != Conversation {
			t.Fatal("ratio 0 must be all conversation")
		}
	}
	all, _ := NewBlendGenerator(1, 32, 128, 1)
	for _, r := range all.Batch(100) {
		if r.Kind != Code {
			t.Fatal("ratio 1 must be all code")
		}
	}
	if _, err := NewBlendGenerator(1.5, 32, 128, 1); err == nil {
		t.Error("ratio >1 must be rejected")
	}
	if _, err := NewBlendGenerator(0.5, 0, 128, 1); err == nil {
		t.Error("minIn 0 must be rejected")
	}
}

// blendMeanOutput returns the blended stream's expected output length:
// the ratio-weighted mixture of the family means.
func blendMeanOutput(ratio float64) float64 {
	return ratio*float64(Code.MeanOutput()) + (1-ratio)*float64(Conversation.MeanOutput())
}
