package gateway

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// hotPrefixWorkload builds a request mix where many prompts share long
// prefixes — the workload the prefix cache exists for. Three 12-token
// prefixes, each continued by several distinct suffixes.
func hotPrefixWorkload(vocab int) [][]int {
	var prompts [][]int
	for p := 0; p < 3; p++ {
		prefix := make([]int, 12)
		for i := range prefix {
			prefix[i] = (p*31 + i*7 + 1) % vocab
		}
		for s := 0; s < 4; s++ {
			suffix := make([]int, 2+s)
			for i := range suffix {
				suffix[i] = (p*17 + s*13 + i*5 + 3) % vocab
			}
			prompts = append(prompts, append(append([]int{}, prefix...), suffix...))
		}
	}
	return prompts
}

// runGateway serves every prompt concurrently and returns the token
// streams in prompt order.
func runGateway(t *testing.T, g *Gateway, prompts [][]int, n int) [][]int {
	t.Helper()
	out := make([][]int, len(prompts))
	var wg sync.WaitGroup
	for i, p := range prompts {
		wg.Add(1)
		go func(i int, prompt []int) {
			defer wg.Done()
			res, err := g.Submit(context.Background(), prompt, n)
			if err != nil {
				t.Errorf("prompt %d: %v", i, err)
				return
			}
			out[i] = res.Tokens
		}(i, p)
	}
	wg.Wait()
	return out
}

// TestPrefixCacheBitIdentical is the gateway-level differential bar:
// the same hot-prefix workload served with the prefix cache off and on
// must produce bit-identical token streams (both equal to solo
// Generate), while the cache-on run actually reuses prefixes and leaves
// the tree and pool accounting clean after drain.
func TestPrefixCacheBitIdentical(t *testing.T) {
	e := testExecutor(t)
	prompts := hotPrefixWorkload(e.Model.Cfg.VocabSize)
	const n = 4

	want := make([][]int, len(prompts))
	for i, p := range prompts {
		want[i] = reference(t, e, p, n)
	}

	for _, cacheOn := range []bool{false, true} {
		cfg := Config{
			MaxBatch:      4,
			QueueDepth:    64,
			KVBudget:      e.Model.Cfg.KVBytes(1, 128), // 32 blocks of 4 tokens
			KVBlockTokens: 4,
			PrefixCache:   cacheOn,
		}
		g, err := New(testExecutor(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two waves: the second wave's prompts are all warm when the
		// cache is on.
		for wave := 0; wave < 2; wave++ {
			got := runGateway(t, g, prompts, n)
			for i := range prompts {
				if got[i] == nil {
					continue // already reported
				}
				if len(got[i]) != len(want[i]) {
					t.Fatalf("cache=%v wave %d prompt %d: %d tokens, want %d", cacheOn, wave, i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("cache=%v wave %d prompt %d: got %v want %v",
							cacheOn, wave, i, got[i], want[i])
					}
				}
			}
		}

		st, ok := g.PrefixStats()
		if ok != cacheOn {
			t.Fatalf("PrefixStats ok=%v with cache=%v", ok, cacheOn)
		}
		if cacheOn {
			if st.Hits == 0 || st.HitTokens == 0 {
				t.Fatalf("cache-on run never hit: %+v", st)
			}
			if st.Inserts == 0 {
				t.Fatalf("cache-on run never inserted: %+v", st)
			}
			if !strings.Contains(g.Prometheus(), "lia_prefix_hits_total") {
				t.Error("metrics exposition missing lia_prefix_hits_total")
			}
		}
		shutdown(t, g)
		if cacheOn {
			// After the drain every pin is gone, the tree is structurally
			// sound, and pool blocks partition exactly into tree-owned and
			// free.
			if err := g.tree.Validate(); err != nil {
				t.Fatalf("tree invalid after drain: %v", err)
			}
			st, _ := g.PrefixStats()
			if st.PinnedNodes != 0 {
				t.Fatalf("%d nodes still pinned after drain", st.PinnedNodes)
			}
			pool := g.prefix.pool
			if pool.Live() != 0 {
				t.Fatalf("%d sequences live after drain", pool.Live())
			}
			if free := pool.FreeBlocks(); free != pool.TotalBlocks()-st.ResidentBlocks {
				t.Fatalf("%d free + %d tree-resident != %d total — leak", free, st.ResidentBlocks, pool.TotalBlocks())
			}
			if len(g.prefix.prompts) != 0 || len(g.prefix.pins) != 0 || len(g.prefix.matches) != 0 {
				t.Fatalf("admitter leaked state: %d prompts, %d pins, %d matches",
					len(g.prefix.prompts), len(g.prefix.pins), len(g.prefix.matches))
			}
		}
	}
}

// TestPrefixCachePoolLess: with no KV pool the cache still works in its
// MaxBlocks mode — seeding prefills without admission accounting — and
// stays bit-identical.
func TestPrefixCachePoolLess(t *testing.T) {
	e := testExecutor(t)
	prompts := hotPrefixWorkload(e.Model.Cfg.VocabSize)
	const n = 4
	g, err := New(testExecutor(t), Config{MaxBatch: 4, PrefixCache: true, PrefixMaxBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, g)
	if g.prefix != nil {
		t.Fatal("pool-less gateway built a pooled admitter")
	}
	for wave := 0; wave < 2; wave++ {
		got := runGateway(t, g, prompts, n)
		for i := range prompts {
			want := reference(t, e, prompts[i], n)
			if got[i] == nil {
				continue
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("wave %d prompt %d: got %v want %v", wave, i, got[i], want)
				}
			}
		}
	}
	st, ok := g.PrefixStats()
	if !ok || st.Inserts == 0 {
		t.Fatalf("pool-less cache inert: ok=%v %+v", ok, st)
	}
	if err := g.tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixCachePreemptionSafety: a pool tight enough to preempt with
// the cache on must still serve every request bit-identically — pins
// protect shared blocks across evictions, and re-admission re-looks-up.
func TestPrefixCachePreemptionSafety(t *testing.T) {
	e := testExecutor(t)
	prompts := hotPrefixWorkload(e.Model.Cfg.VocabSize)
	const n = 6
	g, err := New(testExecutor(t), Config{
		MaxBatch:      4,
		KVBudget:      e.Model.Cfg.KVBytes(1, 64), // 16 blocks: real pressure
		KVBlockTokens: 4,
		PrefixCache:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := runGateway(t, g, prompts, n)
	for i := range prompts {
		want := reference(t, e, prompts[i], n)
		if got[i] == nil {
			continue
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("prompt %d: got %v want %v", i, got[i], want)
			}
		}
	}
	shutdown(t, g)
	if err := g.tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if st, _ := g.PrefixStats(); st.PinnedNodes != 0 {
		t.Fatalf("%d pinned nodes after drain", st.PinnedNodes)
	}
}

// TestPrefixCacheYieldsToDecode is the regression test for the
// admitter's Extend never reclaiming tree blocks: once a hot-prefix
// trace has let the radix tree fill a bounded pool, a lone long decode
// must grow through the cache's cold blocks instead of dying with "KV
// pool cannot extend the sole running sequence" — and still match solo
// Generate token for token.
func TestPrefixCacheYieldsToDecode(t *testing.T) {
	e := testExecutor(t)
	vocab := e.Model.Cfg.VocabSize
	g, err := New(e, Config{
		MaxBatch:      4,
		QueueDepth:    64,
		KVBudget:      e.Model.Cfg.KVBytes(1, 1024), // 256 blocks of 4 tokens
		KVBlockTokens: 4,
		PrefixCache:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, g)

	// Hot prefixes with distinct 36-token tails, one at a time, until the
	// tree has filled the pool and admissions have started evicting: from
	// then on only one admission's worth of blocks is ever free.
	var filled uint64
	for i := 0; filled == 0; i++ {
		if i == 200 {
			t.Fatalf("tree never filled the pool: %+v", g.tree.Stats())
		}
		prompt := make([]int, 48)
		for j := range prompt {
			if j < 12 {
				prompt[j] = (i%3*31 + j*7 + 1) % vocab
			} else {
				prompt[j] = (i*37 + j*11 + 5) % vocab
			}
		}
		if _, err := g.Submit(context.Background(), prompt, 1); err != nil {
			t.Fatalf("fill request %d: %v", i, err)
		}
		filled = g.tree.Stats().Evictions
	}

	// The long decode needs 27 blocks; about half that many are free.
	prompt, n := []int{3, 1, 4, 1, 5, 9, 2, 6}, 100
	res, err := g.Submit(context.Background(), prompt, n)
	if err != nil {
		t.Fatalf("long decode behind a full prefix cache: %v", err)
	}
	want := reference(t, e, prompt, n)
	if len(res.Tokens) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(res.Tokens), len(want))
	}
	for i := range want {
		if res.Tokens[i] != want[i] {
			t.Fatalf("token %d: got %d, want %d", i, res.Tokens[i], want[i])
		}
	}
	if g.tree.Stats().Evictions == filled {
		t.Error("decode grew without evicting any cached block — the pool was never tight")
	}
}
