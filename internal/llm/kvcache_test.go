package llm

import (
	"math"
	"reflect"
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
		cache.Append(li, bad, bad)
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
