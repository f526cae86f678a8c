package llm

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/tensor"
)

// seedFor prefills the prompt's first `cached` tokens on a donor fork and
// exports them as a two-segment seed (exercising the multi-node path the
// radix tree produces), or one segment when cached < 2.
func seedFor(t *testing.T, e *Executor, prompt []int, cached int) *KVSeed {
	t.Helper()
	donor := e.fork()
	_, cache, err := donor.Prefill(prompt[:cached])
	if err != nil {
		t.Fatal(err)
	}
	defer donor.RetireCache(cache)
	var seed KVSeed
	bounds := []int{0, cached}
	if cached >= 2 {
		bounds = []int{0, cached / 2, cached}
	}
	for i := 1; i < len(bounds); i++ {
		seg, err := donor.ExportKV(cache, bounds[i-1], bounds[i])
		if err != nil {
			t.Fatal(err)
		}
		seed.Segments = append(seed.Segments, seg)
	}
	return &seed
}

// seqTokens drains a sequence.
func seqTokens(t *testing.T, s *Sequence) []int {
	t.Helper()
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s.Release()
	return s.Output()
}

// TestPrefixSeededGoldenCorpus replays the full golden corpus through the
// resume-from-cached-length path: every (architecture, policy, precision)
// case generates with a KV seed covering all but the prompt's last token
// and must emit tokens bit-identical to the recorded seed-implementation
// output. On BF16 this proves the compute skip changes no value (the
// kernels are row-independent, masking and RoPE are absolute-position);
// on INT8 it proves the documented fallback to full prefill engages
// (per-tensor activation quantization couples rows across the pass, so a
// skipped prefix would diverge).
func TestPrefixSeededGoldenCorpus(t *testing.T) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var golden map[string][]int
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}

	optM, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	llamaM, err := NewRandom(TinyLlamaConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	archs := []struct {
		name   string
		m      *Model
		prompt []int
	}{
		{"tiny-opt", optM, []int{5, 17, 42, 9, 63}},
		{"tiny-llama", llamaM, []int{9, 33, 71}},
	}
	policies := core.AllPolicies()
	if testing.Short() {
		policies = []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU, core.MoEPartial}
	}
	checked := 0
	for _, a := range archs {
		for _, p := range policies {
			for _, int8Mode := range []bool{false, true} {
				key := goldenKey(a.name, p, int8Mode)
				want, ok := golden[key]
				if !ok {
					t.Fatalf("no golden tokens for %s", key)
				}
				e := NewExecutor(a.m, p)
				if int8Mode {
					e.EnableINT8()
				}
				seed := seedFor(t, e, a.prompt, len(a.prompt)-1)
				seq, err := e.NewSequenceFrom(a.prompt, 12, seed)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := seqTokens(t, seq); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: seeded generation diverged from golden corpus:\n got %v\nwant %v", key, got, want)
				}
				checked++
			}
		}
	}
	if !testing.Short() && checked != len(golden) {
		t.Fatalf("checked %d cases, corpus has %d", checked, len(golden))
	}
}

// TestPrefillFromMatchesPrefill pins the strongest form of the identity:
// not just tokens but the last-position logits and the full cache
// contents match a cold prefill, for every seed split point.
func TestPrefillFromMatchesPrefill(t *testing.T) {
	m, err := NewRandom(TinyLlamaConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{9, 33, 71, 14, 2, 55}
	e := NewExecutor(m, core.PartialCPU)
	wantLogits, wantCache, err := e.fork().Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	for cached := 1; cached < len(prompt); cached++ {
		seed := seedFor(t, e, prompt, cached)
		gotLogits, gotCache, err := e.fork().PrefillFrom(prompt, seed)
		if err != nil {
			t.Fatalf("cached=%d: %v", cached, err)
		}
		if !reflect.DeepEqual(gotLogits.Row(gotLogits.Rows-1), wantLogits.Row(wantLogits.Rows-1)) {
			t.Errorf("cached=%d: last-position logits diverged", cached)
		}
		for li := range m.Layers {
			if !reflect.DeepEqual(gotCache.K[li].Data[:len(prompt)*m.Cfg.KVDim()],
				wantCache.K[li].Data[:len(prompt)*m.Cfg.KVDim()]) {
				t.Errorf("cached=%d layer %d: K cache diverged", cached, li)
			}
			if !reflect.DeepEqual(gotCache.V[li].Data[:len(prompt)*m.Cfg.KVDim()],
				wantCache.V[li].Data[:len(prompt)*m.Cfg.KVDim()]) {
				t.Errorf("cached=%d layer %d: V cache diverged", cached, li)
			}
		}
	}
}

func TestPrefillFromValidation(t *testing.T) {
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(m, core.FullGPU)
	prompt := []int{5, 17, 42, 9, 63}
	full := seedFor(t, e, prompt, len(prompt)-1)

	// Nil and empty seeds are plain prefill.
	if _, cache, err := e.PrefillFrom(prompt, nil); err != nil || cache.Len() != len(prompt) {
		t.Fatalf("nil seed: cache=%v err=%v", cache.Len(), err)
	}
	if _, _, err := e.PrefillFrom(nil, nil); err == nil {
		t.Error("empty prompt accepted")
	}
	// Every tier validates a seed the same way: INT8 drops a valid seed
	// (it prefills the whole prompt) but rejects an invalid one.
	e8 := NewExecutor(m, core.FullGPU)
	e8.EnableINT8()
	whole := seedFor(t, e, append(prompt, 3), len(prompt))
	bad := &KVSeed{Segments: []KVSegment{{
		K: []tensor.Matrix{tensor.New(2, 3)},
		V: []tensor.Matrix{tensor.New(2, 3)},
	}}}
	wrongWidth := &KVSeed{Segments: []KVSegment{{
		K: []tensor.Matrix{tensor.New(2, 3), tensor.New(2, 3)},
		V: []tensor.Matrix{tensor.New(2, 3), tensor.New(2, 3)},
	}}}
	for _, ex := range []struct {
		tier string
		e    *Executor
	}{{"bf16", e}, {"int8", e8}} {
		// A seed covering the whole prompt leaves nothing to compute.
		if _, _, err := ex.e.PrefillFrom(prompt, whole); err == nil {
			t.Errorf("%s: seed covering the whole prompt accepted", ex.tier)
		}
		// Shape mismatches are rejected.
		if _, _, err := ex.e.PrefillFrom(prompt, bad); err == nil {
			t.Errorf("%s: seed with wrong layer count accepted", ex.tier)
		}
		if _, _, err := ex.e.PrefillFrom(prompt, wrongWidth); err == nil {
			t.Errorf("%s: seed with wrong KV width accepted", ex.tier)
		}
	}
	// INT8 mode drops a valid seed for a full prefill and still works.
	if _, cache, err := e8.PrefillFrom(prompt, full); err != nil || cache.Len() != len(prompt) {
		t.Fatalf("int8 fallback: cache=%v err=%v", cache.Len(), err)
	}
}

func TestExportKVBounds(t *testing.T) {
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(m, core.FullGPU)
	_, cache, err := e.Prefill([]int{5, 17, 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExportKV(cache, 0, 4); err == nil {
		t.Error("export past cache length accepted")
	}
	if _, err := e.ExportKV(cache, 2, 2); err == nil {
		t.Error("empty export range accepted")
	}
	if _, err := e.ExportKV(nil, 0, 1); err == nil {
		t.Error("nil cache accepted")
	}
	seg, err := e.ExportKV(cache, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Tokens() != 2 || len(seg.K) != len(m.Layers) {
		t.Fatalf("segment %d tokens, %d layers", seg.Tokens(), len(seg.K))
	}
	// The export is a deep copy: mutating it must not touch the cache.
	orig := cache.K[0].At(1, 0)
	seg.K[0].Set(0, 0, orig+1)
	if cache.K[0].At(1, 0) != orig {
		t.Error("ExportKV aliased the live cache")
	}
}
