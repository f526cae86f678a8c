package llm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/tensor"
)

func tinyModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRandomValidates(t *testing.T) {
	bad := TinyConfig()
	bad.Layers = 0
	if _, err := NewRandom(bad, 1); err == nil {
		t.Error("invalid config accepted")
	}
	bad = TinyConfig()
	bad.VocabSize = 0
	if _, err := NewRandom(bad, 1); err == nil {
		t.Error("zero vocab accepted")
	}
}

func TestDeterministicWeights(t *testing.T) {
	a, _ := NewRandom(TinyConfig(), 7)
	b, _ := NewRandom(TinyConfig(), 7)
	if !a.Embed.Equal(b.Embed, 0) || !a.Layers[0].WQKV.Equal(b.Layers[0].WQKV, 0) {
		t.Error("same seed must give identical weights")
	}
	c, _ := NewRandom(TinyConfig(), 8)
	if a.Embed.Equal(c.Embed, 0) {
		t.Error("different seeds must differ")
	}
}

func TestPrefillShapes(t *testing.T) {
	m := tinyModel(t)
	e := NewExecutor(m, core.FullGPU)
	logits, cache, err := e.Prefill([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// The LM head covers the last position only: its successor is the one
	// token prefill predicts.
	if logits.Rows != 1 || logits.Cols != m.Cfg.VocabSize {
		t.Errorf("logits shape %dx%d, want 1x%d", logits.Rows, logits.Cols, m.Cfg.VocabSize)
	}
	if cache.Len() != 4 {
		t.Errorf("cache length %d, want 4", cache.Len())
	}
	if len(cache.K) != m.Cfg.Layers {
		t.Errorf("cache layers %d", len(cache.K))
	}
}

func TestPrefillRejectsBadInput(t *testing.T) {
	e := NewExecutor(tinyModel(t), core.FullGPU)
	if _, _, err := e.Prefill(nil); err == nil {
		t.Error("empty prompt accepted")
	}
	if _, _, err := e.Prefill([]int{-1}); err == nil {
		t.Error("negative token accepted")
	}
	if _, _, err := e.Prefill([]int{1000}); err == nil {
		t.Error("out-of-vocab token accepted")
	}
	long := make([]int, TinyConfig().MaxSeqLen+1)
	if _, _, err := e.Prefill(long); err == nil {
		t.Error("over-length prompt accepted")
	}
}

// TestPolicyInvariance is the reproduction's key functional property: the
// offloading decision must not change the generated tokens. Every policy
// routes sublayers through different kernels (AMX tiles vs dense), yet
// greedy decoding agrees.
func TestPolicyInvariance(t *testing.T) {
	m := tinyModel(t)
	prompt := []int{5, 17, 42, 9, 63}
	ref, err := NewExecutor(m, core.FullGPU).Generate(prompt, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Policy{core.FullCPU, core.PartialCPU, core.MoEPartial, {true, false, true, false, true, false}} {
		got, err := NewExecutor(m, p).Generate(prompt, 12)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("policy %s diverged at token %d: %v vs %v", p, i, got, ref)
			}
		}
	}
}

// TestIncrementalDecodeMatchesRecompute: decoding with the KV cache must
// agree with re-running prefill over the extended sequence.
func TestIncrementalDecodeMatchesRecompute(t *testing.T) {
	m := tinyModel(t)
	e := NewExecutor(m, core.FullGPU)
	prompt := []int{3, 14, 15, 92}

	_, cache, err := e.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	step, err := e.DecodeStep(cache, 65)
	if err != nil {
		t.Fatal(err)
	}

	full, _, err := e.Prefill(append(append([]int{}, prompt...), 65))
	if err != nil {
		t.Fatal(err)
	}
	lastRow := tensor.FromSlice(1, full.Cols, full.Row(full.Rows-1))
	for c := 0; c < full.Cols; c++ {
		diff := math.Abs(float64(step.At(0, c) - lastRow.At(0, c)))
		if diff > 2e-3 {
			t.Fatalf("logit %d differs: %v vs %v", c, step.At(0, c), lastRow.At(0, c))
		}
	}
}

// TestRoutingCounters: the executor must actually dispatch to the AMX
// pipeline exactly for CPU-assigned sublayers.
func TestRoutingCounters(t *testing.T) {
	m := tinyModel(t)
	gpu := NewExecutor(m, core.FullGPU)
	if _, _, err := gpu.Prefill([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if gpu.Stats.CPUMatmuls != 0 || gpu.Stats.AMXCycles != 0 {
		t.Errorf("full-GPU run touched AMX: %+v", gpu.Stats)
	}
	if gpu.Stats.GPUMatmuls == 0 {
		t.Error("no GPU matmuls recorded")
	}

	cpu := NewExecutor(m, core.FullCPU)
	if _, _, err := cpu.Prefill([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if cpu.Stats.GPUMatmuls != 0 {
		t.Errorf("full-CPU run touched GPU kernels: %+v", cpu.Stats)
	}
	if cpu.Stats.CPUMatmuls == 0 || cpu.Stats.AMXCycles == 0 {
		t.Error("no AMX work recorded")
	}

	partial := NewExecutor(m, core.PartialCPU)
	if _, _, err := partial.Prefill([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if partial.Stats.CPUMatmuls == 0 || partial.Stats.GPUMatmuls == 0 {
		t.Errorf("partial policy should use both devices: %+v", partial.Stats)
	}
	// Attention scoring runs fused per KV head per layer on the CPU: 2
	// sublayers × KV heads × layers kernels (the query heads of a group
	// stack into one dispatch).
	cfg := m.Cfg
	want := 2 * cfg.KVHeads * cfg.Layers
	if partial.Stats.CPUMatmuls != want {
		t.Errorf("partial CPU matmuls = %d, want %d", partial.Stats.CPUMatmuls, want)
	}
}

func TestGenerateProducesTokensInVocab(t *testing.T) {
	e := NewExecutor(tinyModel(t), core.PartialCPU)
	out, err := e.Generate([]int{1, 2, 3}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("generated %d tokens, want 20", len(out))
	}
	for _, tok := range out {
		if tok < 0 || tok >= TinyConfig().VocabSize {
			t.Fatalf("token %d outside vocabulary", tok)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := tinyModel(t)
	a, err := NewExecutor(m, core.FullGPU).Generate([]int{7, 7, 7}, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExecutor(m, core.FullGPU).Generate([]int{7, 7, 7}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy decoding must be deterministic")
		}
	}
}

// TestCausalityOfPrefill: changing a later prompt token must not affect
// earlier positions (causal masking works) — every layer's cached K and V
// rows of positions 0 and 1 stay bit-equal.
func TestCausalityOfPrefill(t *testing.T) {
	m := tinyModel(t)
	e := NewExecutor(m, core.FullGPU)
	_, c1, err := e.Prefill([]int{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := e.Prefill([]int{10, 20, 99})
	if err != nil {
		t.Fatal(err)
	}
	for li := range m.Layers {
		for pos := 0; pos < 2; pos++ {
			if !reflect.DeepEqual(c1.K[li].Row(pos), c2.K[li].Row(pos)) || !reflect.DeepEqual(c1.V[li].Row(pos), c2.V[li].Row(pos)) {
				t.Fatalf("layer %d position %d K/V changed with a future token", li, pos)
			}
		}
	}
	if reflect.DeepEqual(c1.K[0].Row(2), c2.K[0].Row(2)) {
		t.Fatal("the changed token's own K row did not move")
	}
}

// TestINT8ModeRoutesThroughTDPBUSD: quantized mode dispatches every
// parameter sublayer through the INT8 pipeline, leaving attention on the
// policy-routed BF16 path.
func TestINT8ModeRoutesThroughTDPBUSD(t *testing.T) {
	m := tinyModel(t)
	e := NewExecutor(m, core.FullGPU)
	e.EnableINT8()
	if !e.INT8() {
		t.Fatal("INT8 mode not reported")
	}
	if _, _, err := e.Prefill([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	cfg := m.Cfg
	wantInt8 := 4 * cfg.Layers // QKV, OutProj, FC1, FC2 per layer
	if e.Stats.Int8Matmuls != wantInt8 {
		t.Errorf("int8 matmuls = %d, want %d", e.Stats.Int8Matmuls, wantInt8)
	}
	// Attention still runs on the (GPU) dense path, one fused dispatch
	// pair per KV head.
	wantGPU := 2 * cfg.KVHeads * cfg.Layers
	if e.Stats.GPUMatmuls != wantGPU {
		t.Errorf("dense matmuls = %d, want %d", e.Stats.GPUMatmuls, wantGPU)
	}
	if e.Stats.AMXCycles == 0 {
		t.Error("TDPBUSD cycles not recorded")
	}
}

// TestINT8LogitsCloseToBF16: W8A8 quantization perturbs the logits only
// slightly on the tiny model.
func TestINT8LogitsCloseToBF16(t *testing.T) {
	m := tinyModel(t)
	prompt := []int{5, 17, 42}
	ref, _, err := NewExecutor(m, core.FullGPU).Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	q := NewExecutor(m, core.FullGPU)
	q.EnableINT8()
	got, _, err := q.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	var refMag, worst float64
	for i := range ref.Data {
		refMag = math.Max(refMag, math.Abs(float64(ref.Data[i])))
		worst = math.Max(worst, math.Abs(float64(ref.Data[i]-got.Data[i])))
	}
	if worst > 0.1*refMag {
		t.Errorf("max logit deviation %v vs magnitude %v (>10%%)", worst, refMag)
	}
}

// TestINT8GenerationRuns: quantized greedy decoding completes and stays
// in-vocabulary; with the tiny model it matches the BF16 tokens.
func TestINT8GenerationRuns(t *testing.T) {
	m := tinyModel(t)
	prompt := []int{12, 7, 88}
	ref, err := NewExecutor(m, core.FullGPU).Generate(prompt, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := NewExecutor(m, core.FullGPU)
	q.EnableINT8()
	got, err := q.Generate(prompt, 10)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range ref {
		if got[i] < 0 || got[i] >= m.Cfg.VocabSize {
			t.Fatalf("token %d out of vocabulary", got[i])
		}
		if got[i] == ref[i] {
			agree++
		}
	}
	if agree < len(ref)*7/10 {
		t.Errorf("only %d/%d tokens agree with BF16", agree, len(ref))
	}
}

func tinyLlama(t *testing.T) *Model {
	t.Helper()
	m, err := NewRandom(TinyLlamaConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGQACacheIsSmaller: grouped-query attention shrinks the KV cache by
// Heads/KVHeads — the structural property §7.7's Llama2 rows depend on.
func TestGQACacheIsSmaller(t *testing.T) {
	m := tinyLlama(t)
	e := NewExecutor(m, core.FullGPU)
	_, cache, err := e.Prefill([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	wantWidth := m.Cfg.KVDim()
	if cache.K[0].Cols != wantWidth {
		t.Errorf("cache width %d, want %d", cache.K[0].Cols, wantWidth)
	}
	if wantWidth >= m.Cfg.DModel {
		t.Error("GQA cache should be narrower than d_model")
	}
}

// TestGQAGeneratesAndIsPolicyInvariant: the Llama-style tiny model runs
// under every policy with identical greedy tokens.
func TestGQAGeneratesAndIsPolicyInvariant(t *testing.T) {
	m := tinyLlama(t)
	prompt := []int{9, 33, 71}
	ref, err := NewExecutor(m, core.FullGPU).Generate(prompt, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Policy{core.FullCPU, core.PartialCPU} {
		got, err := NewExecutor(m, p).Generate(prompt, 10)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("policy %s diverged: %v vs %v", p, got, ref)
			}
		}
	}
}

// TestGatedFFNShapes: the gated model's FC1 carries gate+up (2·DFF wide)
// and still decodes incrementally.
func TestGatedFFNShapes(t *testing.T) {
	m := tinyLlama(t)
	if m.Layers[0].WFC1.Cols != 2*m.Cfg.DFF {
		t.Fatalf("gated FC1 width %d, want %d", m.Layers[0].WFC1.Cols, 2*m.Cfg.DFF)
	}
	e := NewExecutor(m, core.FullGPU)
	_, cache, err := e.Prefill([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecodeStep(cache, 3); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Errorf("cache length %d after decode, want 3", cache.Len())
	}
}

// TestGQAIncrementalMatchesRecompute mirrors the MHA consistency test on
// the grouped-query architecture.
func TestGQAIncrementalMatchesRecompute(t *testing.T) {
	m := tinyLlama(t)
	e := NewExecutor(m, core.FullGPU)
	prompt := []int{3, 14, 15}
	_, cache, err := e.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	step, err := e.DecodeStep(cache, 65)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := e.Prefill(append(append([]int{}, prompt...), 65))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < full.Cols; c++ {
		diff := math.Abs(float64(step.At(0, c) - full.At(full.Rows-1, c)))
		if diff > 2e-3 {
			t.Fatalf("logit %d differs: %v vs %v", c, step.At(0, c), full.At(full.Rows-1, c))
		}
	}
}

// TestGQAInt8Mode: quantized mode works with the gated architecture too.
func TestGQAInt8Mode(t *testing.T) {
	m := tinyLlama(t)
	e := NewExecutor(m, core.FullGPU)
	e.EnableINT8()
	out, err := e.Generate([]int{5, 6, 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("generated %d tokens", len(out))
	}
	if e.Stats.Int8Matmuls == 0 {
		t.Error("INT8 path not exercised")
	}
}

func TestGenerateBatch(t *testing.T) {
	m := tinyModel(t)
	e := NewExecutor(m, core.PartialCPU)
	prompts := [][]int{{1, 2, 3}, {50, 60}, {7}}
	outs, err := e.GenerateBatch(prompts, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("%d outputs", len(outs))
	}
	// Batch results match individual generation (independent KV caches).
	for i, prompt := range prompts {
		solo, err := NewExecutor(m, core.PartialCPU).Generate(prompt, 6)
		if err != nil {
			t.Fatal(err)
		}
		for j := range solo {
			if outs[i][j] != solo[j] {
				t.Fatalf("sequence %d diverged from solo run", i)
			}
		}
	}
	if _, err := e.GenerateBatch(nil, 4); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := e.GenerateBatch([][]int{{1}, {9999}}, 4); err == nil {
		t.Error("bad token in batch accepted")
	}
}

// TestRoPERotationProperties: rotation preserves norms, leaves position 0
// untouched, and moves later positions.
func TestRoPERotationProperties(t *testing.T) {
	const dh = 8
	m := tensor.New(3, 2*dh) // 2 heads, 3 positions
	for i := range m.Data {
		m.Data[i] = float32(i%5) - 2
	}
	orig := m.Clone()
	applyRoPE(m, dh, 0)
	// Position 0: theta = 0 everywhere → unchanged.
	for c := 0; c < m.Cols; c++ {
		if m.At(0, c) != orig.At(0, c) {
			t.Fatalf("position 0 changed at col %d", c)
		}
	}
	// Later positions change but preserve per-pair norms.
	changed := false
	for r := 1; r < 3; r++ {
		for c := 0; c < m.Cols; c += 2 {
			if m.At(r, c) != orig.At(r, c) {
				changed = true
			}
			n0 := float64(orig.At(r, c))*float64(orig.At(r, c)) + float64(orig.At(r, c+1))*float64(orig.At(r, c+1))
			n1 := float64(m.At(r, c))*float64(m.At(r, c)) + float64(m.At(r, c+1))*float64(m.At(r, c+1))
			if math.Abs(n0-n1) > 1e-4*(n0+1) {
				t.Fatalf("pair norm changed at (%d,%d): %v vs %v", r, c, n0, n1)
			}
		}
	}
	if !changed {
		t.Fatal("rotation did nothing at positions > 0")
	}
}

// TestRoPEDecodeMatchesRecompute: with rotary positions, incremental
// decoding (rotating fresh keys at their absolute offsets) agrees with a
// full recompute.
func TestRoPEDecodeMatchesRecompute(t *testing.T) {
	m := tinyLlama(t)
	if !m.Cfg.RoPE {
		t.Fatal("tiny llama should use RoPE")
	}
	e := NewExecutor(m, core.FullGPU)
	prompt := []int{3, 14, 15}
	_, cache, err := e.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	step, err := e.DecodeStep(cache, 65)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := e.Prefill(append(append([]int{}, prompt...), 65))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < full.Cols; c++ {
		diff := math.Abs(float64(step.At(0, c) - full.At(full.Rows-1, c)))
		if diff > 2e-3 {
			t.Fatalf("RoPE logit %d differs: %v vs %v", c, step.At(0, c), full.At(full.Rows-1, c))
		}
	}
}

// TestRoPEPositionsMatter: permuting the prompt changes the last-position
// logits (position information flows through the rotation, not a table).
func TestRoPEPositionsMatter(t *testing.T) {
	m := tinyLlama(t)
	e := NewExecutor(m, core.FullGPU)
	l1, _, err := e.Prefill([]int{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := e.Prefill([]int{30, 20, 10, 40})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for c := 0; c < l1.Cols; c++ {
		if l1.At(l1.Rows-1, c) != l2.At(l2.Rows-1, c) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reordering the prompt should change the logits under RoPE")
	}
}

// seedHead is the LM head as tensor.MatMulT computed it before the head
// went through tensor.MatMul: per output element one float32 accumulator
// from +0 over the whole row, in k order, zero coefficients included.
func seedHead(normed, embed tensor.Matrix) tensor.Matrix {
	out := tensor.New(normed.Rows, embed.Rows)
	for i := 0; i < normed.Rows; i++ {
		arow := normed.Row(i)
		for j := 0; j < embed.Rows; j++ {
			brow := embed.Row(j)
			var acc float32
			for kk, av := range arow {
				acc += av * brow[kk]
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// TestLogitsMatchSeedHead: the head through tensor.MatMul by the
// transposed embedding equals the seed's dot products bit for bit on
// every model shape the repository runs, including a constant row (whose
// normed row is all zeros) and rows with exact zeros in them.
func TestLogitsMatchSeedHead(t *testing.T) {
	for _, cfg := range []model.Config{TinyConfig(), TinyLlamaConfig(), benchSmallConfig()} {
		t.Run(cfg.Name, func(t *testing.T) {
			m, err := NewRandom(cfg, 42)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(30))
			x := tensor.New(8, cfg.DModel)
			for i := range x.Data {
				x.Data[i] = float32(rng.NormFloat64())
			}
			for c := range x.Row(0) {
				x.Set(0, c, 0.5) // normalises to all zeros
			}
			for c := range x.Row(1) {
				x.Set(1, c, float32(c%3-1)) // mean 0: a third of the row normalises to 0
			}
			got := NewExecutor(m, core.FullGPU).logits(x)
			want := seedHead(tensor.LayerNorm(tensor.New(x.Rows, x.Cols), x, m.FinalGain, m.FinalBias, 1e-5), m.Embed)
			for i, w := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
					t.Fatalf("logit %d = %g, seed head %g", i, got.Data[i], w)
				}
			}
		})
	}
}

// TestGPUWeightNotFiniteKeepsSkip: the dense route adds a zero
// coefficient's term only over a weight proven finite after rounding. A
// weight with NaN, or with a finite value just below MaxFloat32 that BF16
// rounding carries to +Inf, under a k-row whose ReLU coefficient is zero
// in every row must keep the zero-skipping path: FC2's output equals the
// per-row seed, which skips that row, bit for bit, and holds no NaN. The
// finite weight is the control: every block takes the four-row body.
func TestGPUWeightNotFiniteKeepsSkip(t *testing.T) {
	m := tinyModel(t)
	cfg := m.Cfg
	for _, tc := range []struct {
		name  string
		plant float32
	}{
		{"finite", 0},
		{"nan", float32(math.NaN())},
		{"rounds to inf", math.MaxFloat32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			w := m.Layers[0].WFC2.Clone()
			const dead = 3 // the k-row every ReLU coefficient zeroes
			if tc.plant != 0 {
				w.Set(dead, 5, tc.plant)
			}
			x := tensor.New(8, cfg.DFF)
			for i := range x.Data {
				x.Data[i] = max(0, float32(rng.NormFloat64()))
			}
			for r := 0; r < x.Rows; r++ {
				x.Set(r, dead, 0)
			}

			wr, xr := w.Clone(), x.Clone()
			amx.RoundSlice(wr.Data)
			amx.RoundSlice(xr.Data)
			want := tensor.New(x.Rows, cfg.DModel)
			for r := 0; r < x.Rows; r++ {
				for j := range want.Row(r) {
					var acc float32
					for k, a := range xr.Row(r) {
						if a != 0 {
							acc = acc + float32(a*wr.At(k, j))
						}
					}
					want.Set(r, j, acc)
				}
			}

			got := tensor.New(x.Rows, cfg.DModel)
			if _, err := newDenseOp(w).apply(NewExecutor(m, core.FullGPU), 0, model.FC2, x, got); err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Data {
				if math.IsNaN(float64(v)) || math.Float32bits(v) != math.Float32bits(want.Data[i]) {
					t.Fatalf("output %d = %g, per-row seed %g", i, v, want.Data[i])
				}
			}
		})
	}
}
