package llm

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/tensor"
)

// TestKVCacheTruncateClearsImages appends rows of ∞ and NaN past a k-block
// boundary to an all-AMX cache, truncates them away, and requires every
// layer's tile images to equal images built fresh from the rows that
// remain — so every lane at and past the new length is zero — and the
// next decode step to match a cache that never held the bad rows.
func TestKVCacheTruncateClearsImages(t *testing.T) {
	m, err := NewRandom(TinyLlamaConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(m, core.FullCPU)
	prompt := []int{5, 17, 42, 9, 63, 2, 71, 33, 8, 14, 90, 1, 4, 4, 27, 60, 11, 38, 50, 6}
	_, cache, err := e.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(17, m.Cfg.KVDim()) // positions 20–36 cross the k-block at 32
	for i := range bad.Data {
		bad.Data[i] = float32(math.Inf(1 - 2*(i&1)))
	}
	bad.Data[0] = float32(math.NaN())
	for li := range m.Layers {
		cache.Append(li, bad.Rows, bad.Data, bad.Data, bad.Cols)
	}
	cache.Truncate(len(prompt))
	for li := range m.Layers {
		if !reflect.DeepEqual(cache.kImg[li], cache.headImages(cache.K[li], amx.NewGrowingCols)) {
			t.Errorf("layer %d: Kᵀ images after Truncate differ from a fresh build", li)
		}
		if !reflect.DeepEqual(cache.vImg[li], cache.headImages(cache.V[li], amx.NewGrowingRows)) {
			t.Errorf("layer %d: V images after Truncate differ from a fresh build", li)
		}
	}

	_, clean, err := e.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.DecodeStep(cache, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.DecodeStep(clean, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatal("decode after truncating ∞/NaN rows diverges from a clean cache")
	}
}

// TestKVCacheLayoutsFollowPolicy pins which derived layouts a cache
// allocates: the transposed mirror only when Q·Kᵀ runs on the dense route,
// Kᵀ images only when it runs on AMX, V images only when P·V does. An
// all-AMX cache therefore swaps the mirror for the images, and a FullGPU
// cache holds exactly what it held before the images existed.
func TestKVCacheLayoutsFollowPolicy(t *testing.T) {
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var svOnly core.Policy
	svOnly[model.SV] = true
	for _, tc := range []struct {
		name   string
		policy core.Policy
	}{{"FullGPU", core.FullGPU}, {"FullCPU", core.FullCPU}, {"PartialCPU", core.PartialCPU}, {"SVOnly", svOnly}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor(m, tc.policy)
			_, cache, err := e.Prefill([]int{5, 17, 42})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.DecodeStep(cache, 9); err != nil {
				t.Fatal(err)
			}
			qkOnCPU, svOnCPU := tc.policy.OnCPU(model.QKT), tc.policy.OnCPU(model.SV)
			for li := range m.Layers {
				if got := cache.kT[li].Data != nil; got != !qkOnCPU {
					t.Errorf("layer %d: mirror allocated = %v, want %v", li, got, !qkOnCPU)
				}
				if got := cache.kImg[li] != nil; got != qkOnCPU {
					t.Errorf("layer %d: Kᵀ images allocated = %v, want %v", li, got, qkOnCPU)
				}
				if got := cache.vImg[li] != nil; got != svOnCPU {
					t.Errorf("layer %d: V images allocated = %v, want %v", li, got, svOnCPU)
				}
			}
		})
	}
}

// TestKVCacheRowsAreBF16 pins what the cache stores, over the same four
// policies: after prefill, decode, Truncate and a PrefillFrom resume,
// every K and V element and every valid mirror element is its own
// bfloat16 rounding and the mirror is K transposed; and Append rounds its
// own copy, leaving the caller's rows as they were.
func TestKVCacheRowsAreBF16(t *testing.T) {
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var svOnly core.Policy
	svOnly[model.SV] = true
	prompt := []int{5, 17, 42, 9, 63}
	for _, tc := range []struct {
		name   string
		policy core.Policy
	}{{"FullGPU", core.FullGPU}, {"FullCPU", core.FullCPU}, {"PartialCPU", core.PartialCPU}, {"SVOnly", svOnly}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor(m, tc.policy)
			_, cache, err := e.Prefill(prompt)
			if err != nil {
				t.Fatal(err)
			}
			checkBF16Cache(t, "prefill", cache)
			for _, tok := range []int{9, 11} {
				if _, err := e.DecodeStep(cache, tok); err != nil {
					t.Fatal(err)
				}
			}
			checkBF16Cache(t, "decode", cache)
			cache.Truncate(len(prompt) + 1)
			checkBF16Cache(t, "truncate", cache)

			seg, err := e.ExportKV(cache, 0, len(prompt)-1)
			if err != nil {
				t.Fatal(err)
			}
			_, resumed, err := e.PrefillFrom(prompt, &KVSeed{Segments: []KVSegment{seg}})
			if err != nil {
				t.Fatal(err)
			}
			checkBF16Cache(t, "resume", resumed)

			k, v := tensor.New(2, m.Cfg.KVDim()), tensor.New(2, m.Cfg.KVDim())
			for i := range k.Data {
				k.Data[i], v.Data[i] = 1+float32(i)/3, -1-float32(i)/7
			}
			wantK, wantV := k.Clone(), v.Clone()
			for li := range m.Layers {
				resumed.Append(li, k.Rows, k.Data, v.Data, k.Cols)
			}
			if !reflect.DeepEqual(k.Data, wantK.Data) || !reflect.DeepEqual(v.Data, wantV.Data) {
				t.Error("Append modified the caller's rows")
			}
			checkBF16Cache(t, "append", resumed)
		})
	}
}

// checkBF16Cache fails t unless every cached K/V value and every mirror
// column below Len() is bfloat16-exact and the mirror equals K transposed.
func checkBF16Cache(t *testing.T, when string, c *KVCache) {
	t.Helper()
	bf16 := func(x float32) bool { return math.Float32bits(amx.RoundFloat32(x)) == math.Float32bits(x) }
	for li := range c.K {
		for _, rows := range []tensor.Matrix{c.K[li], c.V[li]} {
			for i, x := range rows.Data {
				if !bf16(x) {
					t.Fatalf("%s: layer %d element %d = %g is not bfloat16", when, li, i, x)
				}
			}
		}
		kt := c.kT[li]
		if kt.Data == nil {
			continue
		}
		for col := 0; col < kt.Rows; col++ {
			for r := 0; r < c.Len(); r++ {
				x := kt.At(col, r)
				if !bf16(x) || math.Float32bits(x) != math.Float32bits(c.K[li].At(r, col)) {
					t.Fatalf("%s: layer %d mirror (%d, %d) = %g, K holds %g", when, li, col, r, x, c.K[li].At(r, col))
				}
			}
		}
	}
}

// TestKVCacheCapacityIsReach pins the sizing rule: a sequence's cache
// holds min(len(prompt)+n, MaxSeqLen) rows whether the prompt prefills in
// one pass, in chunks or from a prefix seed, up to the exact boundary
// len(prompt)+n-1 == MaxSeqLen; the sequence then decodes to its end in
// it. A cache handed to a caller — Prefill's — holds MaxSeqLen.
func TestKVCacheCapacityIsReach(t *testing.T) {
	m, err := NewRandom(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(m, core.FullGPU)
	maxSeq := m.Cfg.MaxSeqLen
	prompt := []int{5, 17, 42, 9, 63, 2, 71, 33, 8, 14, 90, 1}
	long := make([]int, maxSeq-2)
	for i := range long {
		long[i] = i % m.Cfg.VocabSize
	}
	for _, tc := range []struct {
		name   string
		prompt []int
		n      int
		chunk  int
		seeded int // prompt tokens the seed covers
	}{
		{"plain", prompt, 8, 0, 0},
		{"chunked", prompt, 8, 5, 0},
		{"seeded", prompt, 8, 0, 7},
		{"seeded-chunked", prompt, 1, 2, 7},
		{"one-short", long, 2, 0, 0},
		{"boundary", long, 3, 4, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seed *KVSeed
			if tc.seeded > 0 {
				seed = seedFor(t, e, tc.prompt, tc.seeded)
			}
			s, err := e.NewSequenceChunked(tc.prompt, tc.n, tc.chunk, seed)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(len(tc.prompt)+tc.n, maxSeq); s.cache.capRows != want {
				t.Errorf("cache holds %d rows, want %d", s.cache.capRows, want)
			}
			for s.Prefilling() {
				if _, err := s.AdvancePrefill(); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(seqTokens(t, s)); got != tc.n {
				t.Errorf("emitted %d tokens, want %d", got, tc.n)
			}
		})
	}
	_, cache, err := e.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	if cache.capRows != maxSeq {
		t.Errorf("Prefill's cache holds %d rows, want MaxSeqLen %d", cache.capRows, maxSeq)
	}
}

// TestPassPastCapacityFails drives a right-sized cache to its capacity
// and one pass past it, on every attention layout: the pass fails with
// an error that names the capacity, before any layer runs, so the cache
// keeps its length and still decodes as before. In a multi-span pass
// one over-long span refuses the whole pass and no cache is extended.
func TestPassPastCapacityFails(t *testing.T) {
	m, err := NewRandom(TinyLlamaConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{9, 33, 71}
	for _, tc := range []struct {
		name   string
		policy core.Policy
	}{{"FullGPU", core.FullGPU}, {"FullCPU", core.FullCPU}, {"PartialCPU", core.PartialCPU}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor(m, tc.policy)
			full, err := e.NewSequence(prompt, 4)
			if err != nil {
				t.Fatal(err)
			}
			seqTokens(t, full) // 3 + 3 rows of 7
			if _, err := full.e.DecodeStep(full.cache, 1); err != nil {
				t.Fatalf("decode into the last row: %v", err)
			}
			capRows := full.cache.Len()
			if capRows != len(prompt)+4 {
				t.Fatalf("cache full at %d rows, want %d", capRows, len(prompt)+4)
			}
			if _, err := full.e.DecodeStep(full.cache, 1); err == nil || !strings.Contains(err.Error(), "capacity of 7 rows") {
				t.Errorf("decode past capacity: error %v, want one naming the capacity", err)
			}
			if got := full.cache.Len(); got != capRows {
				t.Errorf("refused decode left %d rows, want %d", got, capRows)
			}
			full.cache.Truncate(capRows - 2)
			if _, err := full.e.VerifyStep(full.cache, []int{1, 2, 3}); err == nil {
				t.Error("verify of 3 rows into 2 accepted")
			}
			if got := full.cache.Len(); got != capRows-2 {
				t.Errorf("refused verify left %d rows, want %d", got, capRows-2)
			}
			if _, err := full.e.VerifyStep(full.cache, []int{1, 2}); err != nil {
				t.Errorf("verify into the last 2 rows after a refused pass: %v", err)
			}

			room, err := e.NewSequence(prompt, 8)
			if err != nil {
				t.Fatal(err)
			}
			before := room.cache.Len()
			if _, err := e.forward(context.Background(), model.Decode,
				span{room.e, room.cache, []int{1}}, span{full.e, full.cache, []int{1}}); err == nil {
				t.Error("multi-span pass with a span past capacity accepted")
			}
			if room.cache.Len() != before || full.cache.Len() != capRows {
				t.Errorf("refused multi-span pass left %d and %d rows, want %d and %d",
					room.cache.Len(), full.cache.Len(), before, capRows)
			}
		})
	}
}
