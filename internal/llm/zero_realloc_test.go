package llm

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/runner"
	"github.com/lia-sim/lia/internal/tensor"
)

// decodeAllocBudget bounds allocations per DecodeStep, per canonical
// policy. The seed implementation spent 235 allocs/op (re-packing
// weights, cloning operands, re-growing the KV cache). Caching the packed
// weights, growing the KV cache in place and multiplying its tile images
// (AMX route) or its rows (dense route) where they lie into scratch took
// that to 52 under FullGPU, 28 under FullCPU and 36 under PartialCPU:
// every sublayer output, layer norm, residual sum and Q/K/V split still
// allocated, and every dense product built a team closure. The executor
// workspace and destination-taking kernels leave one: the logits, which
// a caller may keep. One of slack each. The INT8 tiers (under FullCPU)
// allocated 17 until quant.Linear took its activation codes and int32
// accumulator from pooled scratch; they too leave only the logits.
var decodeAllocBudget = map[string]float64{"FullGPU": 2, "FullCPU": 2, "PartialCPU": 2, "int8": 2, "sparse-int8": 2}

// stepAllocBudget bounds allocations per Sequence.Step, which keeps only
// the argmax and so takes it from logits in the executor's workspace:
// none under every policy and tier, and one of slack.
const stepAllocBudget = 1

// TestDecodeStepAllocBudget pins the steady-state decode loop's
// allocation count — DecodeStep's and Sequence.Step's — under each
// canonical policy, and under FullCPU on each INT8 tier.
func TestDecodeStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy core.Policy
		tier   func(e *Executor)
	}{
		{"FullGPU", core.FullGPU, nil},
		{"FullCPU", core.FullCPU, nil},
		{"PartialCPU", core.PartialCPU, nil},
		{"int8", core.FullCPU, (*Executor).EnableINT8},
		{"sparse-int8", core.FullCPU, func(e *Executor) { e.EnableSparseINT8(0.5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor(m, tc.policy)
			if tc.tier != nil {
				tc.tier(e)
			}
			_, cache, err := e.Prefill([]int{5, 17, 42, 9, 63})
			if err != nil {
				t.Fatal(err)
			}
			// Warm the scratch buffers and weight caches before counting.
			if _, err := e.DecodeStep(cache, 7); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := e.DecodeStep(cache, 7); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocs/op", allocs)
			if budget := decodeAllocBudget[tc.name]; allocs > budget {
				t.Errorf("DecodeStep allocated %.0f/op under %s, budget %.0f", allocs, tc.name, budget)
			}

			s, err := e.NewSequence([]int{5, 17, 42, 9, 63}, 64)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Step(); err != nil { // warm the fork's workspace
				t.Fatal(err)
			}
			steps := testing.AllocsPerRun(20, func() {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("Sequence.Step: %.0f allocs/op", steps)
			if steps > stepAllocBudget {
				t.Errorf("Sequence.Step allocated %.0f/op under %s, budget %d", steps, tc.name, stepAllocBudget)
			}
		})
	}
}

// fusedRoundMallocs bounds the allocations of one batch-8 fused decode
// round on TinyConfig, per canonical policy, measured the way
// TestFusedRoundSpawnsNothing measures (runtime.MemStats.Mallocs over 100
// rounds, at the process's own GOMAXPROCS: one P, or more, where the
// team's helpers join the loops that split). When each layer spawned its
// own workers an all-AMX round cost 333 with one P and 353 with two; the
// worker team took that to 329 and 340, and attention on the KV cache's
// tile images to 73 and 83 (FullGPU: 209 and 219, PartialCPU: 81 and 91).
// The executor workspace, the destination-taking kernels and MatMulInto
// building its team closure only for a product that splits left 7 with
// one P under every policy — the logits, and per layer the team loop
// over the spans' attention — and 21, 17 and 21 with two. Writing the
// logits into the workspace took one off each: 6 with one P under every
// policy and both INT8 tiers (now fused rounds too, under FullCPU), and
// 20, 16, 20, 8 and 8 with two (at most 20.2, 16.5, 20.1, 8.4 and 8.3
// with four). Two of slack each.
// testing.AllocsPerRun is not the instrument because it pins GOMAXPROCS
// to 1 while it runs, which cannot un-start the team's helpers.
var fusedRoundMallocs = map[string][2]float64{ // [one P, more]
	"FullGPU": {8, 22}, "FullCPU": {8, 18}, "PartialCPU": {8, 22}, "int8": {8, 10}, "sparse-int8": {8, 10},
}

// TestFusedRoundSpawnsNothing pins the fused decode round to the
// persistent worker team under each canonical policy, and under FullCPU
// on each INT8 tier: a hundred batch-8 rounds leave the goroutine count
// exactly where it was, and a round allocates no more than its budget.
func TestFusedRoundSpawnsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy core.Policy
		tier   func(e *Executor)
	}{
		{"FullGPU", core.FullGPU, nil},
		{"FullCPU", core.FullCPU, nil},
		{"PartialCPU", core.PartialCPU, nil},
		{"int8", core.FullCPU, (*Executor).EnableINT8},
		{"sparse-int8", core.FullCPU, func(e *Executor) { e.EnableSparseINT8(0.5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor(m, tc.policy)
			if tc.tier != nil {
				tc.tier(e)
			}
			seqs := make([]*Sequence, 8)
			for i := range seqs {
				if seqs[i], err = e.NewSequence([]int{5 + i, 17, 42}, 120); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			round := func() {
				if err := e.StepBatchFused(ctx, seqs); err != nil {
					t.Fatal(err)
				}
			}
			round() // warm scratch buffers and weight caches

			goroutines := runtime.NumGoroutine()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const rounds = 100
			for i := 0; i < rounds; i++ {
				round()
				if n := runtime.NumGoroutine(); n != goroutines {
					t.Fatalf("round %d: %d goroutines, %d before the first round", i, n, goroutines)
				}
			}
			runtime.ReadMemStats(&after)
			budget := fusedRoundMallocs[tc.name][min(runtime.GOMAXPROCS(0), 2)-1]
			got := float64(after.Mallocs-before.Mallocs) / rounds
			t.Logf("%.1f objects per round", got)
			if got > budget {
				t.Errorf("fused round allocated %.1f objects under %s, budget %.0f", got, tc.name, budget)
			}
		})
	}
}

// TestWeightPacksBounded proves each static weight is packed or rounded
// at most once per executor: the pack count settles after the first
// forward pass and never moves again, no matter how many tokens are
// generated or how many sequences fork the executor. The first pass is a
// batch, so its forks race to build every conversion and the LM head
// (under -race the detector watches them do it), and each is still built
// once.
func TestWeightPacksBounded(t *testing.T) {
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// 4 parameter sublayers per layer, one conversion each, plus the head.
	want := int64(4*m.Cfg.Layers + 1)
	for _, tc := range []struct {
		name   string
		policy core.Policy
	}{
		{"FullGPU", core.FullGPU},
		{"FullCPU", core.FullCPU},
		{"PartialCPU", core.PartialCPU},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor(m, tc.policy)
			if got := e.WeightPacks(); got != 0 {
				t.Fatalf("fresh executor reports %d packs", got)
			}
			if _, err := e.GenerateBatch([][]int{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, 6); err != nil {
				t.Fatal(err)
			}
			if got := e.WeightPacks(); got != want {
				t.Fatalf("%s packed %d weights, want %d", tc.name, got, want)
			}
			// More tokens, more sequences: the count must not move.
			if _, err := e.Generate([]int{5, 17, 42}, 8); err != nil {
				t.Fatal(err)
			}
			if _, err := e.GenerateBatch([][]int{{1, 2}, {3, 4}, {5, 6}}, 6); err != nil {
				t.Fatal(err)
			}
			if got := e.WeightPacks(); got != want {
				t.Errorf("pack count moved %d -> %d across further generation", want, got)
			}
		})
	}
}

// TestRoPECachedMatchesReference pins the table-based rotation to the
// table-free reference bit for bit, across positions and both tiny
// configs' head widths.
func TestRoPECachedMatchesReference(t *testing.T) {
	m, err := NewRandom(TinyLlamaConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(m, core.FullGPU)
	dh := m.Cfg.HeadDim()
	for _, startPos := range []int{0, 1, 17, m.Cfg.MaxSeqLen - 3} {
		ref := tensor.New(3, m.Cfg.DModel)
		for i := range ref.Data {
			ref.Data[i] = float32(i%13) - 6.5
		}
		got := ref.Clone()
		applyRoPE(ref, dh, startPos)
		e.applyRoPECached(got, got.Cols, dh, startPos)
		if !reflect.DeepEqual(ref.Data, got.Data) {
			t.Fatalf("cached RoPE diverges from reference at startPos %d", startPos)
		}
	}
}

// TestGenerateBatchParallelDeterminism requires batch generation to be
// bit-identical sequential vs parallel, and each batch lane identical to
// a solo Generate of the same prompt.
func TestGenerateBatchParallelDeterminism(t *testing.T) {
	prompts := [][]int{{5, 17, 42}, {9, 33, 71, 2}, {1}, {60, 61, 62, 63, 64}, {7, 7, 7}}
	const n = 10
	for _, mc := range []struct {
		name string
		cfg  func() (m *Model, err error)
	}{
		{"tiny-opt", func() (*Model, error) { return NewRandom(TinyConfig(), 42) }},
		{"tiny-llama", func() (*Model, error) { return NewRandom(TinyLlamaConfig(), 42) }},
	} {
		t.Run(mc.name, func(t *testing.T) {
			m, err := mc.cfg()
			if err != nil {
				t.Fatal(err)
			}
			defer runner.SetWorkers(0)

			runner.SetWorkers(1)
			seqExe := NewExecutor(m, core.PartialCPU)
			sequential, err := seqExe.GenerateBatch(prompts, n)
			if err != nil {
				t.Fatal(err)
			}

			runner.SetWorkers(8)
			parExe := NewExecutor(m, core.PartialCPU)
			parallel, err := parExe.GenerateBatch(prompts, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sequential, parallel) {
				t.Fatalf("parallel batch diverges from sequential:\n seq %v\n par %v", sequential, parallel)
			}
			// Dispatch counters are schedule-independent; AMXCycles is not
			// (tile-palette Configure cycles amortize per pooled worker
			// unit, and how many units a run touches depends on
			// scheduling), so it is only required to be live.
			if seqExe.Stats.CPUMatmuls != parExe.Stats.CPUMatmuls ||
				seqExe.Stats.GPUMatmuls != parExe.Stats.GPUMatmuls ||
				seqExe.Stats.Int8Matmuls != parExe.Stats.Int8Matmuls {
				t.Errorf("dispatch counters diverge: sequential %+v parallel %+v", seqExe.Stats, parExe.Stats)
			}
			if seqExe.Stats.AMXCycles == 0 || parExe.Stats.AMXCycles == 0 {
				t.Error("AMX cycle accounting went dead")
			}

			for i, p := range prompts {
				solo, err := NewExecutor(m, core.PartialCPU).Generate(p, n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(solo, parallel[i]) {
					t.Errorf("batch lane %d diverges from solo Generate: %v vs %v", i, parallel[i], solo)
				}
			}
		})
	}
}

// benchSmallConfig is the benchmark's offline_tiers model: wide enough
// that parameter GEMMs, not call overhead, dominate a decode step.
func benchSmallConfig() model.Config {
	return model.Config{
		Name: "bench-small", Layers: 2, DModel: 128, Heads: 4, KVHeads: 4,
		DFF: 512, VocabSize: 256, MaxSeqLen: 256, BytesPerParam: 2, Experts: 1,
	}
}

// generateBatchBytes bounds the bytes one warmed GenerateBatch call
// allocates at offline_tiers' shape — batch 8, 16-token prompts, 32
// tokens each, on bench-small — per policy. When every sequence's KV
// cache held MaxSeqLen = 256 rows a call allocated 7.30 MB under FullGPU
// and 7.37 MB under FullCPU on an AMX host (9.48 MB off it, where the
// tile images are float32): K, V, the dense route's Kᵀ mirror or the AMX
// route's per-head images, and attention scratch, all sized to 256 rows.
// Sized to the 48 rows a sequence can reach, a call allocates 2.08 MB
// under FullGPU and 2.22–2.25 MB under FullCPU (2.69 MB off AMX), at
// GOMAXPROCS 1 to 4. About 10% of slack each over the largest.
var generateBatchBytes = map[string]uint64{"FullGPU": 2_300_000, "FullCPU": 3_000_000}

// TestGenerateBatchByteBudget pins what a GenerateBatch call allocates
// (runtime.MemStats.TotalAlloc over a few warmed calls), so KV caches
// sized past what their sequences can reach show up as a failure.
func TestGenerateBatchByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	m, err := NewRandom(benchSmallConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	prompts := make([][]int, 8)
	for i := range prompts {
		prompts[i] = make([]int, 16)
		for j := range prompts[i] {
			prompts[i][j] = (i*31 + j*7) % m.Cfg.VocabSize
		}
	}
	for _, tc := range []struct {
		name   string
		policy core.Policy
	}{{"FullGPU", core.FullGPU}, {"FullCPU", core.FullCPU}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor(m, tc.policy)
			call := func() {
				if _, err := e.GenerateBatch(prompts, 32); err != nil {
					t.Fatal(err)
				}
			}
			call() // pack the weights, size the parent's workspace
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const calls = 4
			for i := 0; i < calls; i++ {
				call()
			}
			runtime.ReadMemStats(&after)
			got := (after.TotalAlloc - before.TotalAlloc) / calls
			t.Logf("%d bytes per call", got)
			if budget := generateBatchBytes[tc.name]; got > budget {
				t.Errorf("GenerateBatch allocated %d bytes per call under %s, budget %d", got, tc.name, budget)
			}
		})
	}
}
