package kvprefix

import (
	"reflect"
	"testing"

	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/tensor"
	"github.com/lia-sim/lia/internal/units"
)

const (
	testBT     = 4
	testLayers = 2
	testKVDim  = 3
)

// fakeExport fabricates deterministic KV rows for the prompt: position p
// of layer li carries li*1000 + p*10 (+1 for V), so any view anywhere in
// the tree can be checked against the absolute position it claims to
// cover.
func fakeExport(from, to int) (k, v []tensor.Matrix, err error) {
	for li := 0; li < testLayers; li++ {
		km := tensor.New(to-from, testKVDim)
		vm := tensor.New(to-from, testKVDim)
		for r := 0; r < to-from; r++ {
			base := float32(li*1000 + (from+r)*10)
			for c := 0; c < testKVDim; c++ {
				km.Set(r, c, base)
				vm.Set(r, c, base+1)
			}
		}
		k = append(k, km)
		v = append(v, vm)
	}
	return k, v, nil
}

// checkSegments verifies a match/pin's segments cover positions [0, tok)
// with the fabricated values.
func checkSegments(t *testing.T, segs []Segment, tok int) {
	t.Helper()
	pos := 0
	for si, s := range segs {
		if len(s.K) != testLayers || len(s.V) != testLayers {
			t.Fatalf("segment %d has %d/%d layers", si, len(s.K), len(s.V))
		}
		for li := 0; li < testLayers; li++ {
			for r := 0; r < s.K[li].Rows; r++ {
				want := float32(li*1000 + (pos+r)*10)
				if got := s.K[li].At(r, 0); got != want {
					t.Fatalf("segment %d layer %d row %d: K=%v want %v", si, li, r, got, want)
				}
				if got := s.V[li].At(r, 0); got != want+1 {
					t.Fatalf("segment %d layer %d row %d: V=%v want %v", si, li, r, got, want+1)
				}
			}
		}
		pos += s.K[0].Rows
	}
	if pos != tok {
		t.Fatalf("segments cover %d tokens, match claims %d", pos, tok)
	}
}

func newPool(t *testing.T, blocks int) *kvpage.Manager {
	t.Helper()
	m, err := kvpage.NewManager(units.Bytes(blocks*testBT), testBT, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTree(t *testing.T, pool *kvpage.Manager, sp Spiller) *Tree {
	t.Helper()
	tr, err := New(Config{BlockTokens: testBT, Layers: testLayers, Pool: pool, Spiller: sp})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustValidate(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func mustInsert(t *testing.T, tr *Tree, prompt []int) int {
	t.Helper()
	added, err := tr.Insert(prompt, fakeExport)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, tr)
	return added
}

// seqPrompt builds a prompt of n distinct tokens offset by base.
func seqPrompt(base, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = base + i
	}
	return p
}

func TestLookupInsertBasic(t *testing.T) {
	pool := newPool(t, 10)
	tr := newTree(t, pool, nil)

	prompt := seqPrompt(100, 12) // 3 full blocks
	if m := tr.Lookup(prompt); m.Tokens() != 0 {
		t.Fatalf("empty tree matched %d tokens", m.Tokens())
	}
	if added := mustInsert(t, tr, prompt); added != 3 {
		t.Fatalf("insert added %d blocks, want 3", added)
	}
	if free := pool.FreeBlocks(); free != 7 {
		t.Fatalf("pool has %d free blocks after 3-block insert, want 7", free)
	}

	// Same prompt: matching is capped below the last token, so 2 of the 3
	// blocks hit — a full-prompt hit would leave nothing to prefill.
	m := tr.Lookup(prompt)
	if m.Tokens() != 8 || m.Blocks() != 2 {
		t.Fatalf("self-lookup matched %d tokens / %d blocks, want 8 / 2", m.Tokens(), m.Blocks())
	}
	// A longer prompt with the same prefix hits all 3 blocks.
	if m := tr.Lookup(append(prompt[:12:12], 7, 8)); m.Tokens() != 12 {
		t.Fatalf("extended lookup matched %d tokens, want 12", m.Tokens())
	}
	// A divergent prompt hits only the shared full blocks.
	div := append(prompt[:6:6], seqPrompt(500, 6)...)
	if m := tr.Lookup(div); m.Tokens() != 4 {
		t.Fatalf("divergent lookup matched %d tokens, want 4", m.Tokens())
	}
	// An unrelated prompt misses.
	if m := tr.Lookup(seqPrompt(900, 8)); m.Tokens() != 0 {
		t.Fatalf("unrelated lookup matched %d tokens", m.Tokens())
	}

	st := tr.Stats()
	if st.Lookups != 5 || st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("stats %d lookups / %d hits / %d misses, want 5/3/2", st.Lookups, st.Hits, st.Misses)
	}
	if st.HitTokens != 8+12+4 {
		t.Fatalf("hit tokens %d, want 24", st.HitTokens)
	}
	if st.Nodes != 1 || st.ResidentBlocks != 3 {
		t.Fatalf("gauges: %d nodes / %d blocks, want 1 / 3", st.Nodes, st.ResidentBlocks)
	}
	// Partial tails (not a full block) are never cached.
	if added := mustInsert(t, tr, seqPrompt(900, 3)); added != 0 {
		t.Fatalf("sub-block prompt cached %d blocks", added)
	}
}

func TestSplitCopyOnWrite(t *testing.T) {
	pool := newPool(t, 16)
	tr := newTree(t, pool, nil)

	a := seqPrompt(100, 16) // 4 blocks
	mustInsert(t, tr, a)
	// b shares a's first 2 blocks, then diverges: the insert must split
	// a's node at the block boundary and branch, copying no rows.
	b := append(a[:8:8], seqPrompt(600, 8)...)
	if added := mustInsert(t, tr, b); added != 2 {
		t.Fatalf("branch insert added %d blocks, want 2", added)
	}
	st := tr.Stats()
	if st.Nodes != 3 {
		t.Fatalf("after split: %d nodes, want 3 (mid + two tails)", st.Nodes)
	}
	if st.ResidentBlocks != 6 || pool.FreeBlocks() != 10 {
		t.Fatalf("after split: %d resident / %d free, want 6 / 10", st.ResidentBlocks, pool.FreeBlocks())
	}

	// Both paths still serve correct, position-accurate rows.
	ma := tr.Lookup(append(a[:16:16], 1))
	if ma.Tokens() != 16 {
		t.Fatalf("path a matched %d tokens, want 16", ma.Tokens())
	}
	checkSegments(t, tr.mustSegments(ma), 16)
	mb := tr.Lookup(append(b[:16:16], 1))
	if mb.Tokens() != 16 {
		t.Fatalf("path b matched %d tokens, want 16", mb.Tokens())
	}
	segs := tr.mustSegments(mb)
	// The divergent tail's rows carry b's export positions (8..15).
	checkSegments(t, segs[:len(segs)-1], 8)
	tail := segs[len(segs)-1]
	if got, want := tail.K[1].At(0, 0), float32(1000+8*10); got != want {
		t.Fatalf("tail row 0: K=%v want %v", got, want)
	}

	// Inserting a third branch that diverges inside the mid node splits
	// again one level up.
	c := append(a[:4:4], seqPrompt(800, 4)...)
	if added := mustInsert(t, tr, c); added != 1 {
		t.Fatalf("second branch added %d blocks, want 1", added)
	}
	if st := tr.Stats(); st.Nodes != 5 {
		t.Fatalf("after second split: %d nodes, want 5", st.Nodes)
	}
}

// mustSegments captures a match's rows (test-only shorthand for the pin
// path).
func (t *Tree) mustSegments(m Match) []Segment {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.segmentsLocked(m)
}

func TestSubBlockDivergenceSkipped(t *testing.T) {
	tr := newTree(t, newPool(t, 8), nil)
	a := seqPrompt(100, 8)
	mustInsert(t, tr, a)

	// Same first token, divergence at token 1: block-granular COW cannot
	// represent this branch, so the insert is skipped and counted.
	b := append([]int{100}, seqPrompt(700, 7)...)
	if added := mustInsert(t, tr, b); added != 0 {
		t.Fatalf("sub-block divergence cached %d blocks", added)
	}
	st := tr.Stats()
	if st.InsertSkips != 1 || st.Nodes != 1 {
		t.Fatalf("skips %d nodes %d, want 1 and 1", st.InsertSkips, st.Nodes)
	}
	if m := tr.Lookup(b); m.Tokens() != 0 {
		t.Fatalf("sub-block divergent prompt matched %d tokens", m.Tokens())
	}
}

func TestPinBlocksEvictionUntilReleased(t *testing.T) {
	pool := newPool(t, 4)
	tr := newTree(t, pool, nil)
	a := seqPrompt(100, 8) // 2 blocks
	mustInsert(t, tr, a)

	m := tr.Lookup(append(a[:8:8], 1))
	pin := tr.Pin(m)
	if pin.Tokens() != 8 || len(pin.Blocks()) != 2 {
		t.Fatalf("pin covers %d tokens / %d blocks, want 8 / 2", pin.Tokens(), len(pin.Blocks()))
	}
	checkSegments(t, pin.Segments(), 8)

	// 2 free blocks remain; the pinned node cannot be reclaimed.
	if tr.EnsureFree(3, Match{}) {
		t.Fatal("EnsureFree reclaimed a pinned node")
	}
	if st := tr.Stats(); st.Evictions != 0 || st.PinnedNodes != 1 {
		t.Fatalf("evictions %d pinned %d, want 0 and 1", st.Evictions, st.PinnedNodes)
	}
	pin.Release()
	pin.Release() // idempotent
	if !tr.EnsureFree(3, Match{}) {
		t.Fatal("EnsureFree failed after the pin was released")
	}
	mustValidate(t, tr)
	st := tr.Stats()
	if st.Evictions != 1 || st.Nodes != 0 || st.PinnedNodes != 0 {
		t.Fatalf("after eviction: evictions %d nodes %d pinned %d", st.Evictions, st.Nodes, st.PinnedNodes)
	}
	if pool.FreeBlocks() != 4 {
		t.Fatalf("pool has %d free blocks after eviction, want 4", pool.FreeBlocks())
	}
	if got := st.EvictedBlocks * testBT; got != 8 {
		t.Fatalf("the eviction spans %d tokens, want 8", got)
	}
}

func TestPinSurvivesSplit(t *testing.T) {
	pool := newPool(t, 16)
	tr := newTree(t, pool, nil)
	a := seqPrompt(100, 16)
	mustInsert(t, tr, a)

	m := tr.Lookup(append(a[:16:16], 1))
	pin := tr.Pin(m)
	wantBlocks := append([]int{}, pin.Blocks()...)

	// Split the pinned node by branching after block 1.
	b := append(a[:4:4], seqPrompt(800, 4)...)
	mustInsert(t, tr, b)
	if st := tr.Stats(); st.Nodes != 3 {
		t.Fatalf("split produced %d nodes, want 3", st.Nodes)
	}
	// The pin's eager capture is unaffected by the split.
	if !reflect.DeepEqual(pin.Blocks(), wantBlocks) {
		t.Fatalf("pin blocks changed across split: %v -> %v", wantBlocks, pin.Blocks())
	}
	checkSegments(t, pin.Segments(), 16)

	// The pinned path (deepest node + ancestors) still cannot be evicted;
	// only b's unpinned one-block tail can go.
	if tr.EnsureFree(13, Match{}) {
		t.Fatal("EnsureFree reclaimed the pinned path")
	}
	if st := tr.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1 (b's tail only)", st.Evictions)
	}
	pin.Release()
	if !tr.EnsureFree(16, Match{}) {
		t.Fatal("EnsureFree failed after release")
	}
	mustValidate(t, tr)
	if pool.FreeBlocks() != 16 {
		t.Fatalf("pool has %d free blocks, want all 16", pool.FreeBlocks())
	}
}

// capSpiller accepts up to cap spills, recording labels and releases.
type capSpiller struct {
	cap      int
	live     int
	spills   int
	releases int
}

func (s *capSpiller) Spill(label string, b units.Bytes) (func(), bool) {
	if s.live >= s.cap {
		return nil, false
	}
	s.live++
	s.spills++
	return func() { s.live--; s.releases++ }, true
}

func TestSpillAndRefetch(t *testing.T) {
	pool := newPool(t, 4)
	sp := &capSpiller{cap: 8}
	tr := newTree(t, pool, sp)

	a := seqPrompt(100, 8) // 2 blocks
	b := seqPrompt(500, 8) // 2 blocks
	mustInsert(t, tr, a)
	mustInsert(t, tr, b)
	if pool.FreeBlocks() != 0 {
		t.Fatalf("pool has %d free blocks, want 0", pool.FreeBlocks())
	}

	// Touch b so a is the cold one, then demand space: a spills (not
	// evicts — the spiller has room).
	tr.Lookup(append(b[:8:8], 1))
	if !tr.EnsureFree(2, Match{}) {
		t.Fatal("EnsureFree failed with a cold spillable node")
	}
	mustValidate(t, tr)
	st := tr.Stats()
	if st.Spills != 1 || st.Evictions != 0 || st.ColdNodes != 1 || sp.spills != 1 {
		t.Fatalf("spills %d evictions %d cold %d spiller %d, want 1/0/1/1", st.Spills, st.Evictions, st.ColdNodes, sp.spills)
	}
	if st.Nodes != 2 || st.ResidentBlocks != 2 {
		t.Fatalf("nodes %d resident %d, want 2 / 2 (spilled node stays)", st.Nodes, st.ResidentBlocks)
	}

	// Spilled data is frozen: no hit, and inserting under it is skipped.
	if m := tr.Lookup(append(a[:8:8], 1)); m.Tokens() != 0 {
		t.Fatalf("spilled node served a %d-token hit", m.Tokens())
	}
	skipsBefore := tr.Stats().InsertSkips
	mustInsert(t, tr, append(a[:8:8], seqPrompt(900, 4)...))
	if got := tr.Stats().InsertSkips; got != skipsBefore+1 {
		t.Fatalf("insert under a spilled node was not skipped (skips %d)", got)
	}

	// Refetch re-charges a's blocks from the pool and thaws it.
	if restored := tr.Refetch(append(a[:8:8], 1)); restored != 8 {
		t.Fatalf("refetch restored %d tokens, want 8", restored)
	}
	mustValidate(t, tr)
	st = tr.Stats()
	if st.Refetches != 1 || st.ColdNodes != 0 || sp.releases != 1 {
		t.Fatalf("refetches %d cold %d released %d, want 1/0/1", st.Refetches, st.ColdNodes, sp.releases)
	}
	m := tr.Lookup(append(a[:8:8], 1))
	if m.Tokens() != 8 {
		t.Fatalf("refetched node matched %d tokens, want 8", m.Tokens())
	}
	checkSegments(t, tr.mustSegments(m), 8)

	// With the pool full again, a refetch of the still-resident prompt is
	// a no-op and a refetch needing blocks fails soft.
	if restored := tr.Refetch(append(b[:8:8], 1)); restored != 0 {
		t.Fatalf("resident refetch restored %d tokens", restored)
	}
}

func TestSpillerRefusalEvicts(t *testing.T) {
	pool := newPool(t, 2)
	sp := &capSpiller{cap: 0} // cold tier always full
	tr := newTree(t, pool, sp)
	mustInsert(t, tr, seqPrompt(100, 8))
	if !tr.EnsureFree(2, Match{}) {
		t.Fatal("EnsureFree failed")
	}
	st := tr.Stats()
	if st.Spills != 0 || st.Evictions != 1 || st.Nodes != 0 {
		t.Fatalf("spills %d evictions %d nodes %d, want 0/1/0", st.Spills, st.Evictions, st.Nodes)
	}
}

func TestInsertEvictsColdOverCapacity(t *testing.T) {
	pool := newPool(t, 4)
	tr := newTree(t, pool, nil)
	a := seqPrompt(100, 8)
	b := seqPrompt(500, 8)
	mustInsert(t, tr, a)
	mustInsert(t, tr, b) // pool now full
	// A third insert must evict the coldest (a) to make room.
	c := seqPrompt(900, 8)
	if added := mustInsert(t, tr, c); added != 2 {
		t.Fatalf("over-capacity insert added %d blocks, want 2", added)
	}
	st := tr.Stats()
	if st.Evictions != 1 || st.Nodes != 2 {
		t.Fatalf("evictions %d nodes %d, want 1 and 2", st.Evictions, st.Nodes)
	}
	if m := tr.Lookup(append(a[:8:8], 1)); m.Tokens() != 0 {
		t.Fatal("evicted prefix still matches")
	}
	if m := tr.Lookup(append(c[:8:8], 1)); m.Tokens() != 8 {
		t.Fatal("new prefix missing after insert-with-eviction")
	}
	// When nothing is evictable (everything pinned), the insert is
	// skipped, not failed.
	pb := tr.Pin(tr.Lookup(append(b[:8:8], 1)))
	pc := tr.Pin(tr.Lookup(append(c[:8:8], 1)))
	skips := tr.Stats().InsertSkips
	if added := mustInsert(t, tr, seqPrompt(1300, 8)); added != 0 {
		t.Fatalf("insert with no free blocks added %d blocks", added)
	}
	if got := tr.Stats().InsertSkips; got != skips+1 {
		t.Fatalf("skips %d, want %d", got, skips+1)
	}
	pb.Release()
	pc.Release()
}

func TestPoolLessMode(t *testing.T) {
	tr, err := New(Config{BlockTokens: testBT, Layers: testLayers, MaxBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := seqPrompt(100, 8)
	b := seqPrompt(500, 8)
	if added, _ := tr.Insert(a, fakeExport); added != 2 {
		t.Fatalf("insert a added %d", added)
	}
	if added, _ := tr.Insert(b, fakeExport); added != 2 {
		t.Fatalf("insert b added %d", added)
	}
	mustValidate(t, tr)
	if st := tr.Stats(); st.ResidentBlocks != 4 {
		t.Fatalf("resident %d, want 4 (at cap)", st.ResidentBlocks)
	}
	// Over the cap: evict the coldest (a).
	tr.Lookup(append(b[:8:8], 1))
	if added, _ := tr.Insert(seqPrompt(900, 8), fakeExport); added != 2 {
		t.Fatal("insert at cap did not evict to make room")
	}
	mustValidate(t, tr)
	st := tr.Stats()
	if st.Evictions != 1 || st.ResidentBlocks != 4 {
		t.Fatalf("evictions %d resident %d, want 1 and 4", st.Evictions, st.ResidentBlocks)
	}
	// Seed drives the pool-less serving path: lookup + eager capture.
	segs, tok := tr.Seed(append(b[:8:8], 1))
	if tok != 8 {
		t.Fatalf("seed matched %d tokens, want 8", tok)
	}
	checkSegments(t, segs, 8)
}

func TestPinOnMissIsInert(t *testing.T) {
	tr := newTree(t, newPool(t, 4), nil)
	pin := tr.Pin(tr.Lookup(seqPrompt(100, 8)))
	if pin.Tokens() != 0 || pin.Blocks() != nil || pin.Segments() != nil {
		t.Fatalf("miss pin not inert: %d tokens %v blocks", pin.Tokens(), pin.Blocks())
	}
	pin.Release()
	if st := tr.Stats(); st.PinnedNodes != 0 {
		t.Fatalf("pinned %d after inert pin", st.PinnedNodes)
	}
}

func TestAdmitSharedIntegration(t *testing.T) {
	pool := newPool(t, 8)
	tr := newTree(t, pool, nil)
	prompt := seqPrompt(100, 9) // 2 full blocks cached + 1 token tail
	mustInsert(t, tr, prompt)   // caches 2 blocks (9/4 = 2 full)
	if pool.FreeBlocks() != 6 {
		t.Fatalf("free %d, want 6", pool.FreeBlocks())
	}

	m := tr.Lookup(prompt)
	if m.Tokens() != 8 {
		t.Fatalf("matched %d tokens, want 8", m.Tokens())
	}
	pin := tr.Pin(m)
	// Admission charges only the unshared suffix: blocksFor(9)=3, minus 2
	// shared, plus 1 headroom = 2 new blocks.
	if err := pool.AdmitShared(1, len(prompt), pin.Blocks()); err != nil {
		t.Fatal(err)
	}
	if pool.FreeBlocks() != 4 {
		t.Fatalf("free %d after shared admit, want 4", pool.FreeBlocks())
	}
	for _, id := range pin.Blocks() {
		if ref := pool.BlockRef(id); ref != 2 {
			t.Fatalf("shared block %d has refcount %d, want 2 (tree + sequence)", id, ref)
		}
	}
	// The tree cannot evict the pinned node even under demand.
	if tr.EnsureFree(6, Match{}) {
		t.Fatal("EnsureFree evicted a node pinned by a live sequence")
	}
	// Sequence finishes: release pool refs, then the pin.
	if err := pool.Release(1); err != nil {
		t.Fatal(err)
	}
	pin.Release()
	mustValidate(t, tr)
	if tr.Stats().PinnedNodes != 0 {
		t.Fatal("pin count nonzero after release")
	}
	if !tr.EnsureFree(8, Match{}) {
		t.Fatal("EnsureFree failed after sequence release")
	}
	if pool.FreeBlocks() != 8 {
		t.Fatalf("free %d at end, want all 8 — leak", pool.FreeBlocks())
	}
}

func TestEnsureFreeExcludesMatch(t *testing.T) {
	pool := newPool(t, 4)
	tr := newTree(t, pool, nil)
	a := seqPrompt(100, 8)
	b := seqPrompt(500, 8)
	mustInsert(t, tr, a)
	mustInsert(t, tr, b)
	// Make a the LRU choice (b looked up last), then exclude a: b must go
	// instead.
	ma := tr.Lookup(append(a[:8:8], 1))
	tr.Lookup(append(b[:8:8], 1))
	if !tr.EnsureFree(2, ma) {
		t.Fatal("EnsureFree failed with an evictable non-excluded node")
	}
	if m := tr.Lookup(append(a[:8:8], 1)); m.Tokens() != 8 {
		t.Fatal("excluded match was evicted")
	}
	if m := tr.Lookup(append(b[:8:8], 1)); m.Tokens() != 0 {
		t.Fatal("non-excluded node survived")
	}
	mustValidate(t, tr)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{BlockTokens: 0, Layers: 1}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(Config{BlockTokens: 4, Layers: 0}); err == nil {
		t.Error("zero layers accepted")
	}
	pool := newPool(t, 4)
	if _, err := New(Config{BlockTokens: 8, Layers: 1, Pool: pool}); err == nil {
		t.Error("mismatched pool block size accepted")
	}
}
