package offload

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// closeEnough is a relative-error check for virtual-clock identities.
func closeEnough(a, b units.Seconds, rel float64) bool {
	fa, fb := float64(a), float64(b)
	if fa == fb {
		return true
	}
	den := math.Max(math.Abs(fa), math.Abs(fb))
	return math.Abs(fa-fb)/den <= rel
}

// lruOrder returns the cache id of every KV page resident in the KV tier,
// coldest first: the order reclaimColdest takes victims in.
func lruOrder(h *Host) []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var ids []int64
	for e := h.pt.lru.Front(); e != nil; e = e.Next() {
		ids = append(ids, e.Value.(*kvPage).cacheID)
	}
	return ids
}

// newTinyHost builds a host over a tiny system, failing the test on any
// setup error.
func newTinyHost(t *testing.T, cfg model.Config, pinned, nCXL int, mutate func(*Config)) *Host {
	t.Helper()
	// Pinning a layer while keeping KV host-side needs kv > layer bytes,
	// which the tiny models only reach at longer contexts.
	ctx := 128
	if pinned > 0 {
		ctx = 256
	}
	sys := TinySystem(cfg, 1, ctx, pinned, nCXL)
	c := Config{System: sys, Model: cfg, Batch: 1, Context: ctx}
	if mutate != nil {
		mutate(&c)
	}
	plan, err := NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(plan, core.FullGPU)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestPrefetchOverlapComputeBound: on a fast link the stream of layer
// l+1 hides entirely under the compute of layer l (Optimization-2), so
// the makespan collapses to the first layer's stream plus all compute.
func TestPrefetchOverlapComputeBound(t *testing.T) {
	cfg := llm.TinyConfig()
	sys := TinySystem(cfg, 1, 128, 0, 0)
	sys.GPU.HostLink.BW = 100000 * units.GBps
	sys.GPU.HostLink.Setup = units.Seconds(1e-12)
	plan, err := NewPlan(Config{System: sys, Model: cfg, Batch: 1, Context: 128})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(plan, core.FullGPU)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pt := h.SimulatePass(model.Decode, 1, 64)
	if pt.Stream <= 0 || pt.Compute <= 0 {
		t.Fatalf("degenerate pass: %+v", pt)
	}
	want := pt.Layers[0].StreamFinish + pt.Compute
	if !closeEnough(pt.Makespan, want, 1e-9) {
		t.Errorf("compute-bound makespan %v, want firstStream+compute %v", pt.Makespan, want)
	}
	if pt.Makespan >= pt.Stream+pt.Compute {
		t.Errorf("no overlap: makespan %v ≥ stream %v + compute %v", pt.Makespan, pt.Stream, pt.Compute)
	}
}

// TestPrefetchOverlapTransferBound: on a starved link the pipeline is
// link-limited — the makespan collapses to the full serial stream plus
// the last layer's compute.
func TestPrefetchOverlapTransferBound(t *testing.T) {
	cfg := llm.TinyConfig()
	sys := TinySystem(cfg, 1, 128, 0, 0)
	sys.GPU.HostLink.BW = 1 * units.MBps
	plan, err := NewPlan(Config{System: sys, Model: cfg, Batch: 1, Context: 128})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(plan, core.FullGPU)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pt := h.SimulatePass(model.Decode, 1, 64)
	last := pt.Layers[len(pt.Layers)-1]
	lastCompute := last.ComputeFinish - last.ComputeStart
	want := pt.Stream + lastCompute
	if !closeEnough(pt.Makespan, want, 1e-9) {
		t.Errorf("transfer-bound makespan %v, want stream+lastCompute %v", pt.Makespan, want)
	}
}

// TestScheduleInvariants checks the double-buffer schedule's structural
// properties on both stages, with and without a pinned layer.
func TestScheduleInvariants(t *testing.T) {
	for _, pinned := range []int{0, 1} {
		h := newTinyHost(t, llm.TinyConfig(), pinned, 0, nil)
		for _, stage := range []model.Stage{model.Prefill, model.Decode} {
			rows := 5
			if stage == model.Decode {
				rows = 1
			}
			pt := h.SimulatePass(stage, rows, 32)
			var prev LayerTiming
			for i, lt := range pt.Layers {
				if lt.Pinned != (i < pinned) {
					t.Fatalf("layer %d pinned=%v, plan pins %d", i, lt.Pinned, pinned)
				}
				if lt.Pinned && lt.StreamFinish != lt.StreamStart {
					t.Errorf("pinned layer %d has stream time", i)
				}
				if lt.ComputeStart < lt.StreamFinish {
					t.Errorf("layer %d computes at %v before its stream finishes at %v", i, lt.ComputeStart, lt.StreamFinish)
				}
				if i > 0 {
					if lt.ComputeStart < prev.ComputeFinish {
						t.Errorf("layer %d compute overlaps layer %d", i, i-1)
					}
					if !lt.Pinned && !prev.Pinned && lt.StreamStart < prev.StreamFinish {
						t.Errorf("layer %d stream overlaps layer %d on the single link", i, i-1)
					}
				}
				prev = lt
			}
			if pt.Makespan != pt.Layers[len(pt.Layers)-1].ComputeFinish {
				t.Errorf("makespan %v ≠ last compute finish", pt.Makespan)
			}
		}
	}
}

// driveKV runs one decode-shaped hook pass against cache id, appending
// one position (past positions already present).
func driveKV(h *Host, id int64, past int) {
	ps := h.BeginPass(id, model.Decode, 1, past)
	for li := 0; li < h.plan.Cfg.Model.Layers; li++ {
		ps.LayerStart(li)
		ps.KVWrite(li, 1)
		ps.KVRead(li, past+1)
	}
	ps.EndPass()
}

// newTwoPageHost builds a host of 16-token KV pages whose DDR holds the
// hosted weights plus exactly two KV pages, and no CXL pool: a third
// page evicts the coldest.
func newTwoPageHost(t *testing.T) *Host {
	t.Helper()
	cfg := llm.TinyConfig()
	return newTinyHost(t, cfg, 0, 0, func(c *Config) {
		c.PageTokens = 16
		var wb units.Bytes
		for _, s := range paramSublayers {
			wb += cfg.DataY(model.Prefill, s, 1, 1)
		}
		wb *= units.Bytes(cfg.Layers)
		page := cfg.KVBytes(1, c.PageTokens)
		c.System.CPU.DRAMCapacity = wb + 2*page + page/2
	})
}

// TestKVEvictionLRUOrder fills a two-page KV tier from three caches and
// checks that victims leave in least-recently-used order.
func TestKVEvictionLRUOrder(t *testing.T) {
	h := newTwoPageHost(t)

	h.CacheCreated(1)
	h.CacheCreated(2)
	h.CacheCreated(3)
	// step checks the eviction count and the resident pages' LRU order
	// after one pass: a victim is the page that was coldest, so the
	// order before a pass and who is gone after it name the victims.
	step := func(what string, evictions uint64, lru ...int64) {
		t.Helper()
		if s := h.Snapshot(); s.KVEvictions != evictions || s.KVSpills != 0 {
			t.Fatalf("%s: %d evictions, %d spills, want %d and 0", what, s.KVEvictions, s.KVSpills, evictions)
		}
		if got := lruOrder(h); !slices.Equal(got, lru) {
			t.Fatalf("%s: LRU %v, want %v", what, got, lru)
		}
	}
	driveKV(h, 1, 0) // cache 1 allocates its first page
	driveKV(h, 2, 0) // cache 2 fills the tier
	driveKV(h, 1, 1) // touch cache 1: cache 2 is now coldest
	step("tier full", 0, 2, 1)
	driveKV(h, 3, 0) // needs a page → evicts cache 2's
	step("cache 3's first page", 1, 1, 3)
	// Re-extending cache 2 must re-fetch its evicted page (one refetch)
	// and claim a second page, evicting the two coldest: 1 then 3.
	driveKV(h, 2, 16)
	step("cache 2 re-extended", 3, 2, 2)
	if s := h.Snapshot(); s.KVRefetches != 1 {
		t.Fatalf("%d refetches, want 1", s.KVRefetches)
	}
	// Retiring a cache frees its pages; retiring twice is a no-op.
	h.CacheRetired(2)
	h.CacheRetired(2)
}

// TestKVRefetchCounting pins KVRefetches to pages that were allocated,
// evicted and allocated again — wherever in the cache the page sits — and
// to nothing else.
func TestKVRefetchCounting(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(h *Host)
		want uint64
	}{
		{"evicted last page re-touched", func(h *Host) {
			driveKV(h, 1, 0)
			driveKV(h, 2, 0)
			driveKV(h, 1, 1)
			driveKV(h, 3, 0) // evicts cache 2's only page, its last
			driveKV(h, 2, 1) // re-touches it
		}, 1},
		{"interior hole", func(h *Host) {
			driveKV(h, 1, 0)
			driveKV(h, 2, 0)
			driveKV(h, 1, 1)
			driveKV(h, 3, 0)  // evicts cache 2's page 0
			driveKV(h, 2, 16) // page 0 again, page 1 for the first time
		}, 1},
		{"first-time growth", func(h *Host) {
			driveKV(h, 1, 0)
			driveKV(h, 1, 16)
			driveKV(h, 2, 0) // evicts cache 1's page 0: no refetch yet
		}, 0},
		{"overflow then retry", func(h *Host) {
			// Fill the KV tier so that, with no page resident, even one
			// page cannot be allocated: the pass overflows before cache 1
			// has any page. Once the tier has room the retry allocates
			// both pages for the first time.
			ts := h.mgr.Snapshot()[h.plan.KVTier]
			filler, err := h.mgr.Alloc(h.plan.KVTier, cxl.KVCache, "filler", ts.Capacity-ts.Used)
			if err != nil {
				t.Fatal(err)
			}
			driveKV(h, 1, 16)
			if s := h.Snapshot(); s.KVOverflows == 0 {
				t.Fatalf("no overflow with the KV tier full: %+v", s)
			}
			h.mgr.Free(filler)
			driveKV(h, 1, 17)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTwoPageHost(t)
			for id := int64(1); id <= 3; id++ {
				h.CacheCreated(id)
			}
			tc.run(h)
			if s := h.Snapshot(); s.KVRefetches != tc.want {
				t.Fatalf("%d refetches, want %d (%d evictions, %d overflows)", s.KVRefetches, tc.want, s.KVEvictions, s.KVOverflows)
			}
		})
	}
}

// TestKVSpillsToCXLBeforeEvicting: with expanders installed, the
// coldest page migrates to CXL (§6: cold KV is the spill class) instead
// of being dropped.
func TestKVSpillsToCXLBeforeEvicting(t *testing.T) {
	cfg := llm.TinyConfig()
	h := newTinyHost(t, cfg, 0, 1, func(c *Config) {
		c.PageTokens = 16
		var wb units.Bytes
		for _, s := range paramSublayers {
			wb += cfg.DataY(model.Prefill, s, 1, 1)
		}
		wb *= units.Bytes(cfg.Layers)
		page := cfg.KVBytes(1, c.PageTokens)
		c.System.CPU.DRAMCapacity = wb + page + page/2 // room for one page only
	})
	h.CacheCreated(1)
	h.CacheCreated(2)
	driveKV(h, 1, 0)
	driveKV(h, 2, 0) // pressure: cache 1's page spills to CXL
	s := h.Snapshot()
	if s.KVSpills != 1 || s.KVEvictions != 0 {
		t.Fatalf("want one spill and no evictions, got %+v", s)
	}
	if s.Tiers[CXL].Used == 0 || s.Tiers[CXL].BytesIn == 0 {
		t.Fatalf("spilled page not resident in CXL: %+v", s.Tiers[CXL])
	}
}

// TestHostCloseStopsWorker: after Close the prefetch worker is gone and
// the hooks still work (inline accounting).
func TestHostCloseStopsWorker(t *testing.T) {
	cfg := llm.TinyConfig()
	before := runtime.NumGoroutine()
	sys := TinySystem(cfg, 1, 256, 1, 0)
	plan, err := NewPlan(Config{System: sys, Model: cfg, Batch: 1, Context: 256})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(plan, core.FullGPU)
	if err != nil {
		t.Fatal(err)
	}
	m, err := llm.NewRandom(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := llm.NewExecutor(m, core.FullGPU)
	e.Mem = h
	if _, err := e.Generate([]int{5, 17, 42}, 4); err != nil {
		t.Fatal(err)
	}
	h.Close()
	h.Close() // idempotent
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, got)
	}
	// Hooks after Close run their accounting inline.
	h.CacheCreated(99)
	driveKV(h, 99, 0)
	if s := h.Snapshot(); s.Decodes == 0 {
		t.Fatal("post-Close pass not accounted")
	}
}

// TestHostSnapshotAndPrometheus: a hosted generate populates the tier
// counters, the pass clock, and the /metrics rendering.
func TestHostSnapshotAndPrometheus(t *testing.T) {
	cfg := llm.TinyConfig()
	h := newTinyHost(t, cfg, 1, 0, nil)
	m, err := llm.NewRandom(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := llm.NewExecutor(m, core.FullGPU)
	e.Mem = h
	if _, err := e.Generate([]int{5, 17, 42, 9, 63}, 6); err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	if s.Prefills != 1 || s.Decodes != 5 {
		t.Fatalf("pass counters: prefills=%d decodes=%d", s.Prefills, s.Decodes)
	}
	if s.LastPass.Makespan <= 0 || s.TotalMakespan < s.LastPass.Makespan {
		t.Fatalf("pass clock: %+v", s.LastPass)
	}
	if s.Tiers[HBM].Used == 0 || s.Tiers[DDR].Used == 0 {
		t.Fatalf("tier residency: %+v", s.Tiers)
	}
	if s.Tiers[DDR].Reads == 0 || s.Xfer.Transfers == 0 {
		t.Fatalf("traffic: ddr=%+v xfer=%+v", s.Tiers[DDR], s.Xfer)
	}
	if s.WeightPacks == 0 {
		t.Fatal("no weight packs observed")
	}
	prom := h.Prometheus()
	for _, want := range []string{
		`lia_offload_tier_used_bytes{tier="hbm"}`,
		`lia_offload_tier_reads_total{tier="ddr"}`,
		"lia_offload_kv_evictions_total",
		"lia_offload_link_transfers_total",
		"lia_offload_passes_decode_total 5",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
