package gateway

import (
	"fmt"
	"strings"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/kvprefix"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/tensor"
)

// prefixAdmitter is the KV admission backend when the prefix cache is on:
// it fronts the paged pool with the radix tree so admission charges only
// a prompt's unshared suffix. The lifecycle per request:
//
//	CanAdmit: refetch spilled prefix state, look up the longest cached
//	          prefix, and (under pressure) reclaim cold tree blocks; the
//	          match is memoized for the Admit that follows in the same
//	          scheduling round, keeping the two decisions consistent.
//	Admit:    pin the match (refcounting the deepest node) and charge the
//	          pool AdmitBlocks(prompt, matched) — the unshared blocks plus
//	          one of headroom — retaining the shared blocks.
//	Extend:   grow by one token slot, reclaiming a cold tree block first
//	          when the pool is dry.
//	Release:  drop the pool reservation and the pin — reached on finish,
//	          preemption, cancel, and failure alike, because every removal
//	          path in the scheduler routes through KV.Release.
//
// All methods run on the batcher goroutine; no internal locking needed
// beyond the tree's own.
type prefixAdmitter struct {
	pool    *kvpage.Manager
	tree    *kvprefix.Tree
	prompts map[int][]int          // scheduler ref → prompt
	matches map[int]kvprefix.Match // ref → match memoized CanAdmit→Admit
	pins    map[int]*kvprefix.Pin  // pool seq id → pin
}

// The admitter must satisfy the scheduler's KV backend interface.
var _ batchpolicy.KV = (*prefixAdmitter)(nil)

func newPrefixAdmitter(pool *kvpage.Manager, tree *kvprefix.Tree) *prefixAdmitter {
	return &prefixAdmitter{
		pool:    pool,
		tree:    tree,
		prompts: map[int][]int{},
		matches: map[int]kvprefix.Match{},
		pins:    map[int]*kvprefix.Pin{},
	}
}

// register associates a scheduler ref with its prompt (the batcher calls
// it on accept; Item carries only lengths).
func (a *prefixAdmitter) register(ref int, prompt []int) { a.prompts[ref] = prompt }

// forget drops a ref's bookkeeping once the request leaves the gateway.
func (a *prefixAdmitter) forget(ref int) {
	delete(a.prompts, ref)
	delete(a.matches, ref)
}

func (a *prefixAdmitter) CanAdmit(it batchpolicy.Item) bool {
	prompt := a.prompts[it.Ref]
	if prompt == nil {
		return a.pool.CanAdmit(it.PromptLen)
	}
	a.tree.Refetch(prompt)
	m := a.tree.Lookup(prompt)
	a.matches[it.Ref] = m
	need := a.pool.AdmitBlocks(it.PromptLen, m.Blocks())
	if a.pool.FreeBlocks() < need {
		a.tree.EnsureFree(need, m)
	}
	return a.pool.FreeBlocks() >= need
}

func (a *prefixAdmitter) Admit(seqID int, it batchpolicy.Item) error {
	prompt := a.prompts[it.Ref]
	if prompt == nil {
		return a.pool.Admit(seqID, it.PromptLen)
	}
	m, ok := a.matches[it.Ref]
	if !ok {
		m = a.tree.Lookup(prompt)
	}
	delete(a.matches, it.Ref)
	pin := a.tree.Pin(m)
	if err := a.pool.AdmitShared(seqID, it.PromptLen, pin.Blocks()); err != nil {
		pin.Release()
		return err
	}
	a.pins[seqID] = pin
	return nil
}

// Extend grows the reservation by one slot. When the pool is out of
// blocks, cold unpinned tree blocks are reclaimed before the failure is
// reported: cached prefixes are evictable, so they must never cost a
// live sequence a preemption (or a sole sequence its life).
func (a *prefixAdmitter) Extend(seqID int) error {
	err := a.pool.Extend(seqID)
	if err != nil && a.tree.EnsureFree(1, kvprefix.Match{}) {
		err = a.pool.Extend(seqID)
	}
	return err
}

func (a *prefixAdmitter) Release(seqID int) error {
	err := a.pool.Release(seqID)
	if pin, ok := a.pins[seqID]; ok {
		pin.Release()
		delete(a.pins, seqID)
	}
	return err
}

// seedFor assembles the llm seed for an admitted sequence: from its pin
// on the pooled path, or a fresh tree capture on the pool-less path.
func (g *Gateway) seedFor(seqID int, prompt []int) *llm.KVSeed {
	if g.tree == nil {
		return nil
	}
	var segs []kvprefix.Segment
	if g.prefix != nil {
		if pin, ok := g.prefix.pins[seqID]; ok {
			segs = pin.Segments()
		}
	} else {
		segs, _ = g.tree.Seed(prompt)
	}
	if len(segs) == 0 {
		return nil
	}
	seed := &llm.KVSeed{Segments: make([]llm.KVSegment, len(segs))}
	for i, s := range segs {
		seed.Segments[i] = llm.KVSegment{K: s.K, V: s.V}
	}
	return seed
}

// insertPrefix caches a freshly prefilled sequence's full blocks
// (best-effort; the tree skips under pressure rather than failing).
func (g *Gateway) insertPrefix(prompt []int, s *llm.Sequence) {
	if g.tree == nil {
		return
	}
	_, _ = g.tree.Insert(prompt, func(from, to int) (k, v []tensor.Matrix, err error) {
		seg, err := s.ExportKV(from, to)
		return seg.K, seg.V, err
	})
}

// PrefixStats snapshots the prefix cache's counters; ok is false when the
// cache is disabled.
func (g *Gateway) PrefixStats() (kvprefix.Stats, bool) {
	if g.tree == nil {
		return kvprefix.Stats{}, false
	}
	return g.tree.Stats(), true
}

// prefixProm renders the prefix-cache counters in Prometheus text format.
func prefixProm(st kvprefix.Stats) string {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("lia_prefix_lookups_total", "Prefix-cache lookups at admission.", st.Lookups)
	counter("lia_prefix_hits_total", "Lookups that reused at least one cached block.", st.Hits)
	counter("lia_prefix_misses_total", "Lookups that reused nothing.", st.Misses)
	counter("lia_prefix_hit_tokens_total", "Prompt tokens served from the cache.", st.HitTokens)
	counter("lia_prefix_lookup_tokens_total", "Prompt tokens looked up.", st.LookupTokens)
	counter("lia_prefix_inserts_total", "Nodes inserted into the radix tree.", st.Inserts)
	counter("lia_prefix_insert_skips_total", "Insertions skipped (pressure, frozen node, or sub-block divergence).", st.InsertSkips)
	counter("lia_prefix_evictions_total", "Nodes evicted from the tree.", st.Evictions)
	counter("lia_prefix_spills_total", "Nodes spilled to the cold memory tier.", st.Spills)
	counter("lia_prefix_refetches_total", "Spilled nodes restored into the pool.", st.Refetches)
	gauge("lia_prefix_nodes", "Radix-tree nodes.", st.Nodes)
	gauge("lia_prefix_resident_blocks", "Pool blocks held by the tree.", st.ResidentBlocks)
	gauge("lia_prefix_cold_nodes", "Nodes currently spilled cold.", st.ColdNodes)
	gauge("lia_prefix_pinned_nodes", "Nodes pinned by live sequences.", st.PinnedNodes)
	return b.String()
}
