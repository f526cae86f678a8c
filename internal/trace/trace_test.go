package trace

import (
	"math"
	"testing"
)

func TestGeneratorDeterministic(t *testing.T) {
	g1, err := NewGenerator(Code, 32, 2048, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(Code, 32, 2048, 7)
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("request %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorRejectsBadRange(t *testing.T) {
	if _, err := NewGenerator(Code, 0, 10, 1); err == nil {
		t.Error("minIn=0 accepted")
	}
	if _, err := NewGenerator(Code, 100, 50, 1); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestInputLengthsUniformInRange(t *testing.T) {
	g, _ := NewGenerator(Conversation, 32, 2048, 1)
	reqs := g.Batch(4000)
	var sum int
	for _, r := range reqs {
		if r.InputLen < 32 || r.InputLen > 2048 {
			t.Fatalf("input length %d out of range", r.InputLen)
		}
		sum += r.InputLen
	}
	mean := float64(sum) / float64(len(reqs))
	// Uniform [32, 2048] has mean 1040; allow sampling noise.
	if mean < 980 || mean > 1100 {
		t.Errorf("mean input length = %v, want ≈1040", mean)
	}
}

func TestOutputLengthsMatchTraceFamily(t *testing.T) {
	for _, k := range []Kind{Code, Conversation} {
		g, _ := NewGenerator(k, 32, 2048, 5)
		reqs := g.Batch(4000)
		var sum int
		for _, r := range reqs {
			if r.OutputLen < 1 {
				t.Fatalf("non-positive output length")
			}
			sum += r.OutputLen
		}
		mean := float64(sum) / float64(len(reqs))
		want := float64(k.MeanOutput())
		// Closed-form sampling has E[X] = mean exactly; the geometric's
		// std ≈ mean, so over 4000 samples the sample mean sits within
		// ±6% (≈4 standard errors) — much tighter than the ±15% the old
		// truncated Bernoulli loop needed.
		if mean < 0.94*want || mean > 1.06*want {
			t.Errorf("%s mean output = %v, want ≈%v", k, mean, want)
		}
	}
}

// TestOutputLengthsGeometricMoments checks the inverse-CDF sampler
// against the geometric family's first two moments: mean 1/p and
// standard deviation √(1−p)/p, over a large sample so the tolerances
// stay several standard errors wide.
func TestOutputLengthsGeometricMoments(t *testing.T) {
	for _, k := range []Kind{Code, Conversation} {
		g, _ := NewGenerator(k, 32, 2048, 11)
		const n = 20000
		reqs := g.Batch(n)
		var sum float64
		for _, r := range reqs {
			sum += float64(r.OutputLen)
		}
		mean := sum / n
		var ss float64
		for _, r := range reqs {
			d := float64(r.OutputLen) - mean
			ss += d * d
		}
		std := math.Sqrt(ss / n)

		m := float64(k.MeanOutput())
		p := 1 / m
		wantStd := math.Sqrt(1-p) / p
		if mean < 0.97*m || mean > 1.03*m {
			t.Errorf("%s sample mean %.2f, want %.2f ±3%%", k, mean, m)
		}
		if std < 0.90*wantStd || std > 1.10*wantStd {
			t.Errorf("%s sample std %.2f, want %.2f ±10%%", k, std, wantStd)
		}
		// The untruncated tail must actually be exercised: with 20000
		// draws, P(max ≤ 4×mean) = (1−e⁻⁴)^20000 ≈ e⁻³⁶⁶ — the old
		// 8×mean cutoff made long generations impossible, this sampler
		// must not.
		var maxOut int
		for _, r := range reqs {
			if r.OutputLen > maxOut {
				maxOut = r.OutputLen
			}
		}
		if maxOut <= 4*k.MeanOutput() {
			t.Errorf("%s max output %d never exceeded 4×mean — tail looks truncated", k, maxOut)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{Batch: 1, InputLen: 32, OutputLen: 32}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Workload{Batch: 0, InputLen: 32, OutputLen: 32}).Validate(); err == nil {
		t.Error("zero batch accepted")
	}
	w := Workload{Batch: 64, InputLen: 256, OutputLen: 32}
	if w.TotalTokens() != 64*32 {
		t.Error("TotalTokens wrong")
	}
	if w.String() != "B=64 Lin=256 Lout=32" {
		t.Errorf("String = %q", w.String())
	}
}

func TestRepresentativeInputs(t *testing.T) {
	// §7: L_max is 2016 for L_out=32 and 1792 for L_out=256.
	got := RepresentativeInputs(2048, 32)
	if got[len(got)-1] != 2016 {
		t.Errorf("L_out=32 grid ends at %d, want 2016", got[len(got)-1])
	}
	got = RepresentativeInputs(2048, 256)
	if got[len(got)-1] != 1792 {
		t.Errorf("L_out=256 grid ends at %d, want 1792", got[len(got)-1])
	}
	if got[0] != 32 {
		t.Errorf("grid starts at %d, want 32", got[0])
	}
	// A tiny model cuts the grid down.
	got = RepresentativeInputs(300, 32)
	for _, l := range got {
		if l > 268 {
			t.Errorf("grid value %d exceeds max", l)
		}
	}
}
