package llm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/tensor"
)

// loadGolden reads the pinned 256-case corpus (policy × precision ×
// architecture) the latency-ladder paths must reproduce bit-for-bit.
func loadGolden(t *testing.T) map[string][]int {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with LLM_UPDATE_GOLDEN=1): %v", err)
	}
	var golden map[string][]int
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// goldenArchs returns the two corpus architectures with their prompts,
// matching goldenRuns.
func goldenArchs(t *testing.T) []struct {
	name   string
	m      *Model
	prompt []int
} {
	t.Helper()
	optM, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	llamaM, err := NewRandom(TinyLlamaConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		m      *Model
		prompt []int
	}{
		{"tiny-opt", optM, []int{5, 17, 42, 9, 63}},
		{"tiny-llama", llamaM, []int{9, 33, 71}},
	}
}

// spotPolicies returns the corpus policies exercised under -short (the
// same canonical four the golden invariance test keeps).
func testPolicies(t *testing.T) []core.Policy {
	if testing.Short() {
		return []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU, core.MoEPartial}
	}
	return core.AllPolicies()
}

// TestVerifyStepMatchesSequentialDecode pins the tentpole equivalence:
// row i of one multi-row cache-resumed VerifyStep equals (bit for bit)
// the logits sequential DecodeStep produces after feeding tokens[:i+1],
// and Truncate rolls the cache back to a state whose next decode is
// bit-identical too — the exactness greedy speculative acceptance and
// chunked prefill both rest on.
func TestVerifyStepMatchesSequentialDecode(t *testing.T) {
	for _, a := range goldenArchs(t) {
		for _, p := range []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU} {
			t.Run(a.name+"/"+p.String(), func(t *testing.T) {
				tokens := []int{3, 77, 12, 50}

				seqE := NewExecutor(a.m, p)
				_, seqCache, err := seqE.Prefill(a.prompt)
				if err != nil {
					t.Fatal(err)
				}
				var seqLogits [][]float32
				for _, tok := range tokens {
					lg, err := seqE.DecodeStep(seqCache, tok)
					if err != nil {
						t.Fatal(err)
					}
					seqLogits = append(seqLogits, append([]float32(nil), lg.Row(0)...))
				}

				verE := NewExecutor(a.m, p)
				_, verCache, err := verE.Prefill(a.prompt)
				if err != nil {
					t.Fatal(err)
				}
				base := verCache.Len()
				vlg, err := verE.VerifyStep(verCache, tokens)
				if err != nil {
					t.Fatal(err)
				}
				if vlg.Rows != len(tokens) {
					t.Fatalf("verify returned %d rows for %d tokens", vlg.Rows, len(tokens))
				}
				for i := range tokens {
					if !reflect.DeepEqual(vlg.Row(i), seqLogits[i]) {
						t.Fatalf("verify row %d diverges from sequential decode", i)
					}
				}

				// Rejection path: roll back all but the first token's row and
				// re-decode the second token — the logits must match the
				// sequential stream exactly.
				verCache.Truncate(base + 1)
				if verCache.Len() != base+1 {
					t.Fatalf("truncate left %d rows, want %d", verCache.Len(), base+1)
				}
				redo, err := verE.DecodeStep(verCache, tokens[1])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(redo.Row(0), seqLogits[1]) {
					t.Fatal("decode after Truncate diverges from sequential decode")
				}
				// And the cache can regrow to full length after rollback.
				if _, err := verE.VerifyStep(verCache, tokens[2:]); err != nil {
					t.Fatal(err)
				}
				if verCache.Len() != base+len(tokens) {
					t.Fatalf("cache length %d after regrow, want %d", verCache.Len(), base+len(tokens))
				}
			})
		}
	}
}

func TestTruncateRejectsBadLengths(t *testing.T) {
	a := goldenArchs(t)[0]
	e := NewExecutor(a.m, core.FullGPU)
	_, cache, err := e.Prefill(a.prompt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, cache.Len() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Truncate(%d) did not panic", n)
				}
			}()
			cache.Truncate(n)
		}()
	}
}

// TestGoldenSpecInvariance runs the full golden corpus through
// speculative decoding (1-layer shared-weight draft, γ=3): every case —
// including INT8, which falls back to sequential decode — must
// reproduce the pinned tokens exactly. This is the bit-identity
// acceptance criterion for the spec rung.
func TestGoldenSpecInvariance(t *testing.T) {
	golden := loadGolden(t)
	for _, a := range goldenArchs(t) {
		draftM, err := DraftModel(a.m, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range testPolicies(t) {
			for _, int8Mode := range []bool{false, true} {
				key := goldenKey(a.name, p, int8Mode)
				want, ok := golden[key]
				if !ok {
					t.Fatalf("no golden case %s", key)
				}
				e := NewExecutor(a.m, p)
				draft := NewExecutor(draftM, p)
				if int8Mode {
					e.EnableINT8()
				}
				got, stats, err := e.SpecGenerate(a.prompt, 12, draft, 3)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: speculative tokens diverged:\n got %v\nwant %v", key, got, want)
				}
				if int8Mode {
					if stats.Rounds != 0 {
						t.Errorf("%s: INT8 fallback still ran %d spec rounds", key, stats.Rounds)
					}
				} else if stats.Rounds == 0 && stats.PlainSteps == 0 {
					t.Errorf("%s: spec path not exercised", key)
				}
			}
		}
	}
}

// TestSpecGenerateGammaSweep: the emitted stream is γ-invariant (always
// the greedy stream), and the stats stay internally consistent.
func TestSpecGenerateGammaSweep(t *testing.T) {
	for _, a := range goldenArchs(t) {
		draftM, err := DraftModel(a.m, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewExecutor(a.m, core.PartialCPU).Generate(a.prompt, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, gamma := range []int{1, 2, 4, 8} {
			e := NewExecutor(a.m, core.PartialCPU)
			draft := NewExecutor(draftM, core.PartialCPU)
			got, stats, err := e.SpecGenerate(a.prompt, 20, draft, gamma)
			if err != nil {
				t.Fatalf("γ=%d: %v", gamma, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s γ=%d: tokens diverged from Generate", a.name, gamma)
			}
			if stats.Accepted > stats.Drafted {
				t.Errorf("γ=%d: accepted %d > drafted %d", gamma, stats.Accepted, stats.Drafted)
			}
			if stats.Emitted != 20 {
				t.Errorf("γ=%d: emitted %d tokens, want 20", gamma, stats.Emitted)
			}
			if tpr := stats.TokensPerRound(); stats.Rounds > 0 && (tpr < 1 || tpr > float64(gamma)+1) {
				t.Errorf("γ=%d: tokens/round %.2f outside [1, γ+1]", gamma, tpr)
			}
		}
	}
}

// TestSpecStepAllowCap: the KV allowance caps a round's durable cache
// growth without breaking bit-identity — capping acceptance still emits
// a prefix of the greedy stream.
func TestSpecStepAllowCap(t *testing.T) {
	a := goldenArchs(t)[0]
	draftM, err := DraftModel(a.m, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewExecutor(a.m, core.PartialCPU).Generate(a.prompt, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, allow := range []int{0, 1, 2, 3} {
		e := NewExecutor(a.m, core.PartialCPU)
		s, err := e.NewSequence(a.prompt, 15)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableSpec(NewExecutor(draftM, core.PartialCPU), 4); err != nil {
			t.Fatal(err)
		}
		for !s.Done() {
			emitted, err := s.SpecStep(allow)
			if err != nil {
				t.Fatal(err)
			}
			if emitted < 1 {
				t.Fatalf("allow=%d: SpecStep emitted %d", allow, emitted)
			}
			if allow <= 1 && emitted != 1 && !s.Done() {
				t.Fatalf("allow=%d: emitted %d tokens in one round", allow, emitted)
			}
			if emitted > max(allow, 1)+0 && emitted > allow {
				// growth = emitted this round ≤ allow rows kept (first token
				// uses the pre-reserved slot).
				t.Fatalf("allow=%d: emitted %d tokens in one round", allow, emitted)
			}
		}
		if !reflect.DeepEqual(s.Output(), want) {
			t.Fatalf("allow=%d: tokens diverged from Generate", allow)
		}
	}
}

// TestGoldenChunkedInvariance drives the full corpus through chunked
// prefill (chunk=2) — including INT8, which must fall back to the
// monolithic pass — and the boundary chunk sizes the satellite names
// (1, len(prompt)−1, ≥len(prompt)) over the canonical policies. All
// bit-identical to the pinned tokens.
func TestGoldenChunkedInvariance(t *testing.T) {
	golden := loadGolden(t)
	drive := func(t *testing.T, e *Executor, prompt []int, n, chunk int) []int {
		t.Helper()
		s, err := e.NewSequenceChunked(prompt, n, chunk, nil)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for s.Prefilling() {
			done, err := s.AdvancePrefill()
			if err != nil {
				t.Fatal(err)
			}
			steps++
			if done != !s.Prefilling() {
				t.Fatal("AdvancePrefill done flag inconsistent with Prefilling")
			}
			if steps > len(prompt)+1 {
				t.Fatal("prefill did not converge")
			}
		}
		if chunk > 0 && chunk < len(prompt) {
			want := (len(prompt) + chunk - 1) / chunk
			if !e.INT8() && steps != want {
				t.Fatalf("chunk=%d took %d prefill rounds, want %d", chunk, steps, want)
			}
		}
		var out []int
		for !s.Done() {
			tok, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tok)
		}
		return out
	}

	for _, a := range goldenArchs(t) {
		for _, p := range testPolicies(t) {
			for _, int8Mode := range []bool{false, true} {
				key := goldenKey(a.name, p, int8Mode)
				want := golden[key]
				e := NewExecutor(a.m, p)
				if int8Mode {
					e.EnableINT8()
				}
				if got := drive(t, e, a.prompt, 12, 2); !reflect.DeepEqual(got, want) {
					t.Errorf("%s chunk=2: tokens diverged:\n got %v\nwant %v", key, got, want)
				}
			}
		}
		// Boundary chunk sizes on the canonical policies.
		for _, p := range []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU, core.MoEPartial} {
			want := golden[goldenKey(a.name, p, false)]
			for _, chunk := range []int{1, len(a.prompt) - 1, len(a.prompt), len(a.prompt) + 7} {
				e := NewExecutor(a.m, p)
				if got := drive(t, e, a.prompt, 12, chunk); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s chunk=%d: tokens diverged", a.name, p, chunk)
				}
			}
		}
	}
}

// TestChunkedStepGuards: a prefilling sequence rejects Step/SpecStep
// until AdvancePrefill completes, and reports its progress.
func TestChunkedStepGuards(t *testing.T) {
	a := goldenArchs(t)[0]
	e := NewExecutor(a.m, core.PartialCPU)
	s, err := e.NewSequenceChunked(a.prompt, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Prefilling() {
		t.Fatal("fresh chunked sequence should be prefilling")
	}
	if _, err := s.Step(); err == nil {
		t.Fatal("Step on a prefilling sequence succeeded")
	}
	if err := s.EnableSpec(e, 2); err == nil {
		t.Fatal("EnableSpec on a prefilling sequence succeeded")
	}
	if done, err := s.AdvancePrefill(); err != nil || done {
		t.Fatalf("first chunk: done=%v err=%v", done, err)
	}
	if s.prefillPos != 2 {
		t.Fatalf("prefill pos %d after one chunk of 2", s.prefillPos)
	}
	for s.Prefilling() {
		if _, err := s.AdvancePrefill(); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := s.AdvancePrefill(); err != nil || !done {
		t.Fatalf("AdvancePrefill on ready sequence: done=%v err=%v", done, err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedWithSeed: chunked prefill composes with a prefix-cache
// seed — the chunks cover only the uncached remainder and the tokens
// stay bit-identical.
func TestChunkedWithSeed(t *testing.T) {
	a := goldenArchs(t)[1] // tiny-llama: RoPE + GQA is the harder case
	prompt := []int{9, 33, 71, 5, 17, 42, 9, 63}
	e := NewExecutor(a.m, core.PartialCPU)
	want, err := e.Generate(prompt, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, cache, err := e.Prefill(prompt[:3])
	if err != nil {
		t.Fatal(err)
	}
	seg, err := e.ExportKV(cache, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	seed := &KVSeed{Segments: []KVSegment{seg}}
	s, err := e.NewSequenceChunked(prompt, 10, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	if s.prefillPos != 3 {
		t.Fatalf("seeded chunked sequence starts at %d, want 3", s.prefillPos)
	}
	for s.Prefilling() {
		if _, err := s.AdvancePrefill(); err != nil {
			t.Fatal(err)
		}
	}
	var out []int
	for !s.Done() {
		tok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tok)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("seeded chunked tokens diverged:\n got %v\nwant %v", out, want)
	}
}

// TestForwardSpansMatchSolo: spans of different lengths over caches of
// different lengths, sharing one multi-span pass, each get the hidden
// states and cache rows their own one-span pass gives them — the fused
// round's property for spans of more than one token, which locates each
// span's rows in the stacked pass — on the dense tier and on both INT8
// tiers, which must quantize each span's rows with their own scale.
func TestForwardSpansMatchSolo(t *testing.T) {
	prompts := [][]int{{1, 2, 3, 4}, {50, 60}, {7, 8, 9, 10, 11, 12}}
	cached := []int{1, 0, 3}
	tiers := []struct {
		name string
		on   func(*Executor)
	}{
		{"dense", nil},
		{"int8", (*Executor).EnableINT8},
		{"sparse-int8", func(e *Executor) { e.EnableSparseINT8(0.5) }},
	}
	for _, a := range goldenArchs(t) {
		for _, p := range []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU} {
			for _, tier := range tiers {
				forwardSpansMatchSolo(t, a.name+"/"+tier.name, a.m, p, tier.on, prompts, cached)
			}
		}
	}
}

// forwardSpansMatchSolo is TestForwardSpansMatchSolo for one architecture,
// policy and tier (on nil: dense).
func forwardSpansMatchSolo(t *testing.T, name string, m *Model, p core.Policy, on func(*Executor), prompts [][]int, cached []int) {
	t.Helper()
	ctx := context.Background()
	e := NewExecutor(m, p)
	if on != nil {
		on(e)
	}
	// spansFor prefills each prompt's cached head alone and returns
	// spans over the rest.
	spansFor := func() []span {
		spans := make([]span, len(prompts))
		for i, pr := range prompts {
			sub := e.fork()
			spans[i] = span{sub, sub.newCache(sub.Model.Cfg.MaxSeqLen), pr[cached[i]:]}
			if cached[i] > 0 {
				if _, err := sub.forward(ctx, model.Prefill, span{sub, spans[i].cache, pr[:cached[i]]}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return spans
	}
	solo := spansFor()
	var want []tensor.Matrix
	for _, sp := range solo {
		x, err := sp.e.forward(ctx, model.Prefill, sp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, x)
	}
	stacked := spansFor()
	x, err := e.forward(ctx, model.Prefill, stacked...)
	if err != nil {
		t.Fatal(err)
	}
	lo := 0
	for i, sp := range stacked {
		hi := lo + len(sp.tokens)
		if !reflect.DeepEqual(rowRange(x, lo, hi).Data, want[i].Data) {
			t.Errorf("%s/%s span %d: hidden states diverged from its solo pass", name, p, i)
		}
		for li := range m.Layers {
			if !reflect.DeepEqual(sp.cache.K[li].Data, solo[i].cache.K[li].Data) ||
				!reflect.DeepEqual(sp.cache.V[li].Data, solo[i].cache.V[li].Data) {
				t.Errorf("%s/%s span %d layer %d: cache rows diverged from its solo pass", name, p, i, li)
			}
		}
		lo = hi
	}
}

// TestStepBatchFusedMatchesStepBatch: the cross-sequence batched GEMM
// round emits bit-identical tokens to per-sequence stepping, across
// both architectures, all corpus policies, ragged targets (members
// retiring mid-stream), and the dense and both INT8 tiers — whose
// activation scale is per span, so a fused round quantizes each
// sequence's row alone and dispatches each parameter sublayer once:
// 4·Layers INT8 products per round over all forks, not 4·Layers·B.
func TestStepBatchFusedMatchesStepBatch(t *testing.T) {
	ctx := context.Background()
	for _, a := range goldenArchs(t) {
		for _, p := range testPolicies(t) {
			for _, tier := range []struct {
				name string
				on   func(*Executor)
			}{
				{"", nil},
				{"/int8", (*Executor).EnableINT8},
				{"/sparse-int8", func(e *Executor) { e.EnableSparseINT8(0.5) }},
			} {
				t.Run(a.name+"/"+p.String()+tier.name, func(t *testing.T) {
					prompts := [][]int{{1, 2, 3}, {50, 60}, {7}, a.prompt}
					targets := []int{9, 4, 7, 2} // ragged: members finish at different rounds

					mk := func() []*Sequence {
						e := NewExecutor(a.m, p)
						if tier.on != nil {
							tier.on(e)
						}
						var seqs []*Sequence
						for i, prompt := range prompts {
							s, err := e.NewSequence(prompt, targets[i])
							if err != nil {
								t.Fatal(err)
							}
							seqs = append(seqs, s)
						}
						return seqs
					}
					live := func(seqs []*Sequence) []*Sequence {
						var out []*Sequence
						for _, s := range seqs {
							if !s.Done() {
								out = append(out, s)
							}
						}
						return out
					}
					int8Products := func(seqs []*Sequence) (n int) {
						for _, s := range seqs {
							n += s.e.Stats.Int8Matmuls
						}
						return n
					}

					ref := mk()
					for l := live(ref); len(l) > 0; l = live(ref) {
						if err := StepBatch(ctx, l); err != nil {
							t.Fatal(err)
						}
					}
					fused := mk()
					e := fused[0].e // any fork shares the parent's model/caches
					want := 0
					if tier.on != nil {
						want = 4 * len(a.m.Layers)
					}
					for l := live(fused); len(l) > 0; l = live(fused) {
						before := int8Products(fused)
						if err := e.StepBatchFused(ctx, l); err != nil {
							t.Fatal(err)
						}
						if got := int8Products(fused) - before; len(l) > 1 && got != want {
							t.Fatalf("a fused round of %d sequences ran %d INT8 products, want %d", len(l), got, want)
						}
					}
					for i := range ref {
						if !reflect.DeepEqual(ref[i].Output(), fused[i].Output()) {
							t.Errorf("sequence %d diverged:\n per-seq %v\n fused  %v", i, ref[i].Output(), fused[i].Output())
						}
					}
				})
			}
		}
	}
}

// TestGenerateBatchFusedGolden: the fused batch path reproduces the
// golden corpus tokens (BF16 cases) when every corpus prompt runs as
// one batch.
func TestGenerateBatchFusedGolden(t *testing.T) {
	golden := loadGolden(t)
	for _, a := range goldenArchs(t) {
		for _, p := range []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU, core.MoEPartial} {
			e := NewExecutor(a.m, p)
			outs, err := e.GenerateBatch([][]int{a.prompt, a.prompt, a.prompt}, 12)
			if err != nil {
				t.Fatal(err)
			}
			want := golden[goldenKey(a.name, p, false)]
			for lane, got := range outs {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s lane %d diverged from golden tokens", a.name, p, lane)
				}
			}
		}
	}
}

// TestSpecValidation covers the guard rails: draft construction bounds,
// double-enable, INT8 refusal, unprimed SpecStep.
func TestSpecValidation(t *testing.T) {
	a := goldenArchs(t)[0]
	if _, err := DraftModel(nil, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := DraftModel(a.m, 0); err == nil {
		t.Error("zero-layer draft accepted")
	}
	if _, err := DraftModel(a.m, len(a.m.Layers)+1); err == nil {
		t.Error("over-deep draft accepted")
	}
	draftM, err := DraftModel(a.m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if draftM.Cfg.Layers != 1 || len(draftM.Layers) != 1 {
		t.Fatalf("draft has %d/%d layers", draftM.Cfg.Layers, len(draftM.Layers))
	}

	e := NewExecutor(a.m, core.PartialCPU)
	s, err := e.NewSequence(a.prompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpecStep(100); err == nil {
		t.Error("SpecStep without EnableSpec succeeded")
	}
	draft := NewExecutor(draftM, core.PartialCPU)
	if err := s.EnableSpec(nil, 2); err == nil {
		t.Error("nil draft accepted")
	}
	if err := s.EnableSpec(draft, 0); err == nil {
		t.Error("γ=0 accepted")
	}
	if err := s.EnableSpec(draft, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableSpec(draft, 2); err == nil {
		t.Error("double EnableSpec succeeded")
	}

	int8E := NewExecutor(a.m, core.PartialCPU)
	int8E.EnableINT8()
	s2, err := int8E.NewSequence(a.prompt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.EnableSpec(draft, 2); err == nil {
		t.Error("EnableSpec on INT8 target succeeded")
	}

	if _, err := e.VerifyStep(nil, []int{1}); err == nil {
		t.Error("VerifyStep on nil cache succeeded")
	}
	_, cache, err := e.Prefill(a.prompt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.VerifyStep(cache, nil); err == nil {
		t.Error("empty VerifyStep succeeded")
	}
}

// TestSpecGenerateAtMaxSeqLen runs speculative decoding to the model's
// last position — len(prompt)+n-1 == MaxSeqLen, where the sequence's
// cache holds MaxSeqLen rows — one token short of it, where it holds
// len(prompt)+n == MaxSeqLen rows, and well short of it, where a last
// fully drafted verify pass fills all len(prompt)+n rows. Each must emit
// Generate's tokens, and each round's drafting must be what it was when
// every cache held MaxSeqLen rows: the pinned SpecStats are that
// implementation's.
func TestSpecGenerateAtMaxSeqLen(t *testing.T) {
	want := map[string]SpecStats{
		"tiny-opt/n=124":   {Rounds: 25, Drafted: 100, Accepted: 98, Emitted: 124},
		"tiny-opt/n=123":   {Rounds: 25, Drafted: 100, Accepted: 98, Emitted: 123},
		"tiny-opt/n=20":    {Rounds: 4, Drafted: 16, Accepted: 16, Emitted: 20},
		"tiny-llama/n=126": {Rounds: 25, Drafted: 100, Accepted: 100, Emitted: 126},
		"tiny-llama/n=125": {Rounds: 25, Drafted: 100, Accepted: 100, Emitted: 125},
		"tiny-llama/n=20":  {Rounds: 4, Drafted: 16, Accepted: 16, Emitted: 20},
	}
	for _, a := range goldenArchs(t) {
		draftM, err := DraftModel(a.m, 1)
		if err != nil {
			t.Fatal(err)
		}
		boundary := a.m.Cfg.MaxSeqLen + 1 - len(a.prompt)
		for _, n := range []int{boundary, boundary - 1, 20} {
			name := fmt.Sprintf("%s/n=%d", a.name, n)
			ref, err := NewExecutor(a.m, core.FullGPU).Generate(a.prompt, n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, stats, err := NewExecutor(a.m, core.FullGPU).SpecGenerate(a.prompt, n, NewExecutor(draftM, core.FullGPU), 4)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: speculative tokens diverged from Generate", name)
			}
			if stats != want[name] {
				t.Errorf("%s: stats %+v, want %+v", name, stats, want[name])
			}
		}
	}
}
