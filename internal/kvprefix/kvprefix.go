// Package kvprefix implements cross-request KV reuse: a radix (prefix)
// tree keyed on token IDs at KV-block granularity over the paged pool
// (internal/kvpage). Each node owns a whole number of blocks holding the
// K/V rows for its token span; a request whose prompt walks a path
// through the tree reuses those blocks — admission charges only the
// unshared suffix, and prefill (llm.PrefillFrom) skips the cached tokens
// entirely.
//
// Sharing rules:
//
//   - Branching is copy-on-write at the first divergent block: inserting
//     a prompt that diverges inside a node splits the node at the last
//     shared block boundary; both branches keep views into the original
//     (immutable) K/V storage, so no rows are copied.
//   - Nodes are refcounted by the sequences pinned to them. A pin lands
//     on the deepest matched node only; because eviction is leaf-first,
//     every ancestor on the path is protected transitively (it has a
//     descendant, so it is not a leaf). Eviction of a node is only legal
//     at refcount zero.
//   - Pool blocks are refcounted in kvpage: one reference for the tree's
//     ownership plus one per sequence sharing the block, so shared blocks
//     are counted once pool-wide.
//   - Cold nodes spill through the configured Spiller (the offload
//     runtime's DDR/CXL tiers) before they are evicted: a spilled node
//     releases its pool blocks but keeps its data and its place in the
//     tree, frozen — it cannot match lookups, split, or grow children
//     until Refetch re-charges pool blocks for it. Stats counts hits,
//     misses, spills, evictions and refetches.
//
// The tree is internally locked: the serving batcher mutates it from its
// single scheduling goroutine while /metrics readers snapshot Stats
// concurrently.
package kvprefix

import (
	"fmt"
	"sync"

	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/tensor"
	"github.com/lia-sim/lia/internal/units"
)

// Spiller moves a cold node's KV bytes to a colder memory tier. Spill
// reserves capacity there and returns a release closure (plus ok=false
// when the tier cannot hold the node, which turns the spill into a plain
// eviction). The offload Host's PrefixStore implements this.
type Spiller interface {
	Spill(label string, b units.Bytes) (release func(), ok bool)
}

// Exporter copies KV rows [from, to) of a freshly prefilled cache, one
// K and one V matrix per layer — the tree's insert path calls it to
// materialize new nodes (llm.Executor.ExportKV has this shape).
type Exporter func(from, to int) (k, v []tensor.Matrix, err error)

// Config sizes a tree.
type Config struct {
	// BlockTokens is the block granularity; must match the pool's.
	BlockTokens int
	// Layers is the model depth (validates exporter output).
	Layers int
	// Pool, when set, accounts cached blocks against the paged pool the
	// admission policy charges — the tree owns its blocks there via
	// AllocBlocks/ReleaseBlocks. When nil, the tree caps its residency at
	// MaxBlocks instead.
	Pool *kvpage.Manager
	// MaxBlocks bounds resident blocks when Pool is nil (default 1024).
	MaxBlocks int
	// BlockBytes is one block's KV footprint, used for spill accounting.
	// Defaults to the pool's per-token footprint × BlockTokens, or (pool-
	// less) 1 byte per token slot.
	BlockBytes units.Bytes
	// Spiller, when set, receives cold nodes before they would be evicted.
	Spiller Spiller
}

// Stats is a point-in-time snapshot of the tree's counters and gauges.
type Stats struct {
	// Lookups partitions into Hits (≥1 block reused) and Misses.
	Lookups, Hits, Misses uint64
	// HitTokens counts prompt tokens served from cache; LookupTokens the
	// tokens looked up (hit rate = HitTokens/LookupTokens).
	HitTokens, LookupTokens uint64
	// Inserts counts node creations, InsertedBlocks their blocks, and
	// InsertSkips insertions abandoned (no capacity, or sub-block
	// divergence / frozen spilled node on the path).
	Inserts, InsertedBlocks, InsertSkips uint64
	// Evictions/Spills/Refetches count node transitions; the *Blocks
	// variants their block totals.
	Evictions, EvictedBlocks   uint64
	Spills, SpilledBlocks      uint64
	Refetches, RefetchedBlocks uint64
	// Nodes, ResidentBlocks, ColdNodes and PinnedNodes gauge the tree.
	Nodes, ResidentBlocks, ColdNodes, PinnedNodes int
}

// node is one radix-tree node: a whole number of blocks' worth of tokens
// plus their per-layer K/V rows.
type node struct {
	id       int
	parent   *node
	tokens   []int
	k, v     []tensor.Matrix // per layer, rows == len(tokens); immutable storage
	blocks   []int           // pool block IDs (nil when pool-less or spilled)
	children map[int]*node   // keyed by first token of each child
	refs     int             // pins on this node (deepest-match pins only)
	lastUse  uint64
	spilled  bool
	unspill  func() // releases the cold-tier reservation
}

// blockCount returns the node's span in blocks.
func (n *node) blockCount(blockTokens int) int { return len(n.tokens) / blockTokens }

// Tree is the radix prefix cache. All methods are safe for concurrent
// use; mutation is expected from one scheduling goroutine with Stats
// readers alongside.
type Tree struct {
	mu         sync.Mutex
	cfg        Config
	root       *node
	tick       uint64
	nextNodeID int
	nodes      int
	resident   int // blocks currently charged (pool or MaxBlocks cap)
	cold       int // spilled nodes
	pinned     int // nodes with refs > 0

	stats Stats
}

// New builds an empty tree.
func New(cfg Config) (*Tree, error) {
	if cfg.BlockTokens < 1 {
		return nil, fmt.Errorf("kvprefix: block size %d must be ≥1 token", cfg.BlockTokens)
	}
	if cfg.Layers < 1 {
		return nil, fmt.Errorf("kvprefix: model depth %d must be ≥1", cfg.Layers)
	}
	if cfg.Pool != nil && cfg.Pool.BlockTokens() != cfg.BlockTokens {
		return nil, fmt.Errorf("kvprefix: block size %d does not match the pool's %d",
			cfg.BlockTokens, cfg.Pool.BlockTokens())
	}
	if cfg.Pool == nil && cfg.MaxBlocks <= 0 {
		cfg.MaxBlocks = 1024
	}
	if cfg.BlockBytes <= 0 {
		if cfg.Pool != nil {
			cfg.BlockBytes = cfg.Pool.BytesPerToken() * units.Bytes(cfg.BlockTokens)
		} else {
			cfg.BlockBytes = units.Bytes(cfg.BlockTokens)
		}
	}
	return &Tree{cfg: cfg, root: &node{children: map[int]*node{}}}, nil
}

// BlockTokens returns the tree's block granularity.
func (t *Tree) BlockTokens() int { return t.cfg.BlockTokens }

// seg is one matched node and how many of its leading blocks matched.
type seg struct {
	n      *node
	blocks int
}

// Match is a lookup result: the longest cached block-aligned prefix.
type Match struct {
	tokens int
	segs   []seg
}

// Tokens returns the matched prefix length.
func (m Match) Tokens() int { return m.tokens }

// Blocks returns the matched prefix length in blocks.
func (m Match) Blocks() int {
	b := 0
	for _, s := range m.segs {
		b += s.blocks
	}
	return b
}

// matchBlocks counts how many of n's leading blocks equal the prompt
// prefix, up to limit blocks. The prompt slice starts at n's first token.
func (t *Tree) matchBlocks(n *node, prompt []int, limit int) int {
	bt := t.cfg.BlockTokens
	nb := n.blockCount(bt)
	if nb > limit {
		nb = limit
	}
	j := 0
outer:
	for j < nb {
		base := j * bt
		for i := 0; i < bt; i++ {
			if n.tokens[base+i] != prompt[base+i] {
				break outer
			}
		}
		j++
	}
	return j
}

// lookupLocked walks the longest matching path. Matching is capped at
// the prompt's last-but-one token so a hit always leaves ≥1 suffix token
// to prefill (admission and PrefillFrom both require it), and stops at
// spilled (frozen) nodes — their data is cold and must be Refetched
// before it can serve a hit.
func (t *Tree) lookupLocked(prompt []int, touch bool) Match {
	bt := t.cfg.BlockTokens
	limitTok := ((len(prompt) - 1) / bt) * bt
	m := Match{}
	cur := t.root
	pos := 0
	for pos < limitTok {
		child, ok := cur.children[prompt[pos]]
		if !ok || child.spilled {
			break
		}
		j := t.matchBlocks(child, prompt[pos:], (limitTok-pos)/bt)
		if j == 0 {
			break
		}
		m.segs = append(m.segs, seg{n: child, blocks: j})
		pos += j * bt
		if touch {
			t.tick++
			child.lastUse = t.tick
		}
		if j < child.blockCount(bt) {
			break
		}
		cur = child
	}
	m.tokens = pos
	return m
}

// Lookup finds the longest cached block-aligned prefix of the prompt.
// It is read-only apart from recency and hit/miss accounting — no pool
// blocks move, so admission can call it freely before deciding.
func (t *Tree) Lookup(prompt []int) Match {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.lookupLocked(prompt, true)
	t.stats.Lookups++
	t.stats.LookupTokens += uint64(len(prompt))
	if m.tokens > 0 {
		t.stats.Hits++
		t.stats.HitTokens += uint64(m.tokens)
	} else {
		t.stats.Misses++
	}
	return m
}

// Segment is one matched run of cached KV rows (one K and V per layer) —
// views into the tree's immutable storage, valid independently of later
// splits or evictions.
type Segment struct {
	K, V []tensor.Matrix
}

// segments captures row views for a match, eagerly (splits re-slice the
// node fields afterwards, but never the backing arrays).
func (t *Tree) segmentsLocked(m Match) []Segment {
	bt := t.cfg.BlockTokens
	out := make([]Segment, 0, len(m.segs))
	for _, s := range m.segs {
		rows := s.blocks * bt
		seg := Segment{K: make([]tensor.Matrix, len(s.n.k)), V: make([]tensor.Matrix, len(s.n.v))}
		for li := range s.n.k {
			seg.K[li] = rowsView(s.n.k[li], rows)
			seg.V[li] = rowsView(s.n.v[li], rows)
		}
		out = append(out, seg)
	}
	return out
}

// rowsView returns the first rows rows of m without copying.
func rowsView(m tensor.Matrix, rows int) tensor.Matrix {
	return tensor.FromSlice(rows, m.Cols, m.Data[:rows*m.Cols])
}

// Pin holds a match alive for one admitted sequence: the deepest matched
// node's refcount is raised (protecting the whole path, since eviction
// is leaf-first) and the matched block IDs and KV row views are captured
// eagerly, so later splits of the pinned node cannot skew them.
type Pin struct {
	tree   *Tree
	node   *node
	tokens int
	blocks []int
	segs   []Segment
	done   bool
}

// Pin pins a match. A zero match yields an inert pin (Release is a
// no-op), so callers need not special-case misses.
func (t *Tree) Pin(m Match) *Pin {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &Pin{tree: t, tokens: m.tokens}
	if len(m.segs) == 0 {
		return p
	}
	deepest := m.segs[len(m.segs)-1].n
	if deepest.refs == 0 {
		t.pinned++
	}
	deepest.refs++
	p.node = deepest
	for _, s := range m.segs {
		p.blocks = append(p.blocks, s.n.blocks[:s.blocks]...)
	}
	p.segs = t.segmentsLocked(m)
	return p
}

// Tokens returns the pinned prefix length.
func (p *Pin) Tokens() int { return p.tokens }

// Blocks returns the pinned pool block IDs in prompt order (nil for a
// pool-less tree or a zero match).
func (p *Pin) Blocks() []int { return p.blocks }

// Segments returns the pinned KV rows, in prompt order.
func (p *Pin) Segments() []Segment { return p.segs }

// Release drops the pin. Idempotent.
func (p *Pin) Release() {
	if p.done {
		return
	}
	p.done = true
	if p.node == nil {
		return
	}
	p.tree.mu.Lock()
	defer p.tree.mu.Unlock()
	p.node.refs--
	if p.node.refs == 0 {
		p.tree.pinned--
	}
}

// Seed looks up the prompt and captures its matched KV rows in one call —
// the pool-less serving path, where nothing needs pinning because block
// accounting is internal to the tree.
func (t *Tree) Seed(prompt []int) ([]Segment, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.lookupLocked(prompt, true)
	return t.segmentsLocked(m), m.tokens
}

// freeLocked returns how many more blocks the tree may charge right now.
func (t *Tree) freeLocked() int {
	if t.cfg.Pool != nil {
		return t.cfg.Pool.FreeBlocks()
	}
	return t.cfg.MaxBlocks - t.resident
}

// Insert adds the prompt's uncached full blocks to the tree, pulling KV
// rows from the exporter (a freshly prefilled sequence cache). It is
// best-effort: under block pressure it evicts/spills cold unpinned
// leaves, and if capacity still cannot be found — or the insertion point
// is frozen (spilled) or diverges inside a block — the remainder is
// skipped and counted, never an error. Returns the number of blocks
// added.
func (t *Tree) Insert(prompt []int, export Exporter) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	bt := t.cfg.BlockTokens
	limitTok := (len(prompt) / bt) * bt
	cur := t.root
	pos := 0
	added := 0
	for pos < limitTok {
		child, ok := cur.children[prompt[pos]]
		if !ok {
			nb := (limitTok - pos) / bt
			n, err := t.newNodeLocked(cur, prompt[pos:limitTok], nb, export, pos)
			if err != nil {
				return added, err
			}
			if n == nil {
				t.stats.InsertSkips++
				return added, nil // no capacity — skip, don't fail
			}
			added += nb
			return added, nil
		}
		if child.spilled {
			// Frozen: cold nodes neither match nor split. The data is
			// already cached (cold); Refetch is the only way back.
			t.stats.InsertSkips++
			return added, nil
		}
		j := t.matchBlocks(child, prompt[pos:], (limitTok-pos)/bt)
		if j == 0 {
			// Same first token, divergence inside block 0: block-granular
			// COW cannot branch below a block boundary.
			t.stats.InsertSkips++
			return added, nil
		}
		if j == child.blockCount(bt) {
			pos += j * bt
			t.tick++
			child.lastUse = t.tick
			cur = child
			continue
		}
		// Diverged (or ran out of prompt) inside child at block j: split
		// so the shared prefix becomes its own node, then continue — the
		// next iteration descends into the new mid node.
		t.splitLocked(child, j)
		pos += j * bt
		t.tick++
		child.parent.lastUse = t.tick
		cur = child.parent
	}
	return added, nil
}

// newNodeLocked materializes a new leaf under parent covering tokens
// (nb full blocks starting at prompt offset promptOff), allocating pool
// blocks (evicting/spilling cold leaves if needed). Returns nil when
// capacity cannot be found.
func (t *Tree) newNodeLocked(parent *node, tokens []int, nb int, export Exporter, promptOff int) (*node, error) {
	// The parent may be a leaf right now — freeing space must not spill
	// or evict the node we are about to attach a child to.
	if !t.ensureFreeLocked(nb, map[*node]bool{parent: true}) {
		return nil, nil
	}
	k, v, err := export(promptOff, promptOff+nb*t.cfg.BlockTokens)
	if err != nil {
		return nil, fmt.Errorf("kvprefix: export: %w", err)
	}
	if len(k) != t.cfg.Layers || len(v) != t.cfg.Layers {
		return nil, fmt.Errorf("kvprefix: exporter returned %d/%d layers, want %d", len(k), len(v), t.cfg.Layers)
	}
	for li := range k {
		if k[li].Rows != nb*t.cfg.BlockTokens || v[li].Rows != nb*t.cfg.BlockTokens {
			return nil, fmt.Errorf("kvprefix: exporter returned %d rows for layer %d, want %d",
				k[li].Rows, li, nb*t.cfg.BlockTokens)
		}
	}
	var blocks []int
	if t.cfg.Pool != nil {
		blocks, err = t.cfg.Pool.AllocBlocks(nb)
		if err != nil {
			return nil, fmt.Errorf("kvprefix: %w", err)
		}
	}
	t.nextNodeID++
	n := &node{
		id:       t.nextNodeID,
		parent:   parent,
		tokens:   append([]int{}, tokens...),
		k:        k,
		v:        v,
		blocks:   blocks,
		children: map[int]*node{},
	}
	t.tick++
	n.lastUse = t.tick
	parent.children[n.tokens[0]] = n
	t.nodes++
	t.resident += nb
	t.stats.Inserts++
	t.stats.InsertedBlocks += uint64(nb)
	return n, nil
}

// splitLocked splits child at block boundary j (0 < j < child blocks):
// a new mid node takes the first j blocks and adopts child, which keeps
// the tail. Storage is re-sliced, never copied (copy-on-write at the
// divergent block). Pins are unaffected: a pin references child (the
// deepest node at pin time) and captured its row views eagerly; mid is
// protected from eviction by having a child.
func (t *Tree) splitLocked(child *node, j int) {
	bt := t.cfg.BlockTokens
	cut := j * bt
	t.nextNodeID++
	mid := &node{
		id:       t.nextNodeID,
		parent:   child.parent,
		tokens:   child.tokens[:cut],
		k:        make([]tensor.Matrix, len(child.k)),
		v:        make([]tensor.Matrix, len(child.v)),
		children: map[int]*node{child.tokens[cut]: child},
		lastUse:  child.lastUse,
	}
	for li := range child.k {
		mid.k[li] = rowsView(child.k[li], cut)
		mid.v[li] = rowsView(child.v[li], cut)
		rest := child.k[li].Rows - cut
		child.k[li] = tensor.FromSlice(rest, child.k[li].Cols, child.k[li].Data[cut*child.k[li].Cols:])
		child.v[li] = tensor.FromSlice(rest, child.v[li].Cols, child.v[li].Data[cut*child.v[li].Cols:])
	}
	if child.blocks != nil {
		mid.blocks = child.blocks[:j:j]
		child.blocks = child.blocks[j:]
	}
	child.parent.children[mid.tokens[0]] = mid
	child.parent = mid
	child.tokens = child.tokens[cut:]
	t.nodes++
}

// Refetch walks the prompt's path and un-spills frozen nodes that match,
// re-charging their pool blocks, as long as free capacity allows — the
// admission path calls it before Lookup so cold-but-hot-again prefixes
// come back without any eviction pressure. Returns tokens restored.
func (t *Tree) Refetch(prompt []int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	bt := t.cfg.BlockTokens
	limitTok := ((len(prompt) - 1) / bt) * bt
	cur := t.root
	pos := 0
	restored := 0
	for pos < limitTok {
		child, ok := cur.children[prompt[pos]]
		if !ok {
			break
		}
		j := t.matchBlocks(child, prompt[pos:], (limitTok-pos)/bt)
		if j == 0 {
			break
		}
		if child.spilled {
			nb := child.blockCount(bt)
			if nb > t.freeLocked() {
				break // no room to restore; admission proceeds without it
			}
			if t.cfg.Pool != nil {
				blocks, err := t.cfg.Pool.AllocBlocks(nb)
				if err != nil {
					break
				}
				child.blocks = blocks
			}
			t.resident += nb
			t.cold--
			child.spilled = false
			if child.unspill != nil {
				child.unspill()
				child.unspill = nil
			}
			t.stats.Refetches++
			t.stats.RefetchedBlocks += uint64(nb)
			restored += j * bt
		}
		pos += j * bt
		t.tick++
		child.lastUse = t.tick
		if j < child.blockCount(bt) {
			break
		}
		cur = child
	}
	return restored
}

// EnsureFree evicts or spills cold, unpinned leaves until at least n
// blocks are free (pool free list, or MaxBlocks headroom when pool-less),
// excluding the nodes of keep — the match the caller is about to pin.
// Returns whether the target was reached.
func (t *Tree) EnsureFree(n int, keep Match) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	exclude := make(map[*node]bool, len(keep.segs))
	for _, s := range keep.segs {
		exclude[s.n] = true
	}
	return t.ensureFreeLocked(n, exclude)
}

// ensureFreeLocked implements EnsureFree under the lock. Resident leaves
// are reclaimed first (spill-preferred); when none remain, the coldest
// spilled leaf is dropped from the cold tier — it holds no pool blocks,
// but removing it un-shadows its ancestors so they become reclaimable
// leaves on the next iteration.
func (t *Tree) ensureFreeLocked(n int, exclude map[*node]bool) bool {
	for t.freeLocked() < n {
		if victim := t.coldestLeafLocked(exclude, false); victim != nil {
			t.reclaimLocked(victim)
			continue
		}
		victim := t.coldestLeafLocked(exclude, true)
		if victim == nil {
			return false
		}
		t.evictSpilledLocked(victim)
	}
	return true
}

// coldestLeafLocked picks the least-recently-used unpinned leaf, either
// among resident leaves or (spilled=true) cold ones.
func (t *Tree) coldestLeafLocked(exclude map[*node]bool, spilled bool) *node {
	var best *node
	var walk func(n *node)
	walk = func(n *node) {
		if len(n.children) == 0 {
			if n == t.root || n.refs > 0 || n.spilled != spilled || exclude[n] {
				return
			}
			if best == nil || n.lastUse < best.lastUse {
				best = n
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return best
}

// evictSpilledLocked drops a spilled leaf entirely: its cold-tier
// reservation is released and the node leaves the tree. No pool blocks
// move (a spilled node holds none).
func (t *Tree) evictSpilledLocked(victim *node) {
	if victim.unspill != nil {
		victim.unspill()
		victim.unspill = nil
	}
	delete(victim.parent.children, victim.tokens[0])
	victim.parent = nil
	t.cold--
	t.nodes--
	t.stats.Evictions++
}

// reclaimLocked frees a victim leaf's blocks: spill first (data moves to
// the cold tier and the node stays, frozen), eviction only when no
// spiller is configured or the cold tier refuses.
func (t *Tree) reclaimLocked(victim *node) {
	bt := t.cfg.BlockTokens
	nb := victim.blockCount(bt)
	if t.cfg.Spiller != nil {
		label := fmt.Sprintf("prefix-node-%d", victim.id)
		if release, ok := t.cfg.Spiller.Spill(label, units.Bytes(nb)*t.cfg.BlockBytes); ok {
			t.releaseBlocksLocked(victim)
			victim.spilled = true
			victim.unspill = release
			t.cold++
			t.stats.Spills++
			t.stats.SpilledBlocks += uint64(nb)
			return
		}
	}
	t.releaseBlocksLocked(victim)
	delete(victim.parent.children, victim.tokens[0])
	victim.parent = nil
	t.nodes--
	t.stats.Evictions++
	t.stats.EvictedBlocks += uint64(nb)
}

// releaseBlocksLocked returns a resident node's blocks to the pool (or
// the pool-less cap).
func (t *Tree) releaseBlocksLocked(n *node) {
	nb := n.blockCount(t.cfg.BlockTokens)
	if t.cfg.Pool != nil && n.blocks != nil {
		if err := t.cfg.Pool.ReleaseBlocks(n.blocks); err != nil {
			// Double-free would mean corrupted bookkeeping; surface loudly.
			panic(fmt.Sprintf("kvprefix: release node %d: %v", n.id, err))
		}
		n.blocks = nil
	}
	t.resident -= nb
}

// Stats snapshots the tree's counters and gauges.
func (t *Tree) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Nodes = t.nodes
	st.ResidentBlocks = t.resident
	st.ColdNodes = t.cold
	st.PinnedNodes = t.pinned
	return st
}

// Validate walks the whole tree checking structural invariants — tests
// and the fuzzer call it after every operation batch. It reports the
// first violation found.
func (t *Tree) Validate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bt := t.cfg.BlockTokens
	resident, cold, nodes, pinned := 0, 0, 0, 0
	var walk func(n *node) error
	walk = func(n *node) error {
		for first, c := range n.children {
			nodes++
			if c.parent != n {
				return fmt.Errorf("node %d has a stale parent pointer", c.id)
			}
			if len(c.tokens) == 0 || len(c.tokens)%bt != 0 {
				return fmt.Errorf("node %d spans %d tokens — not a whole block count", c.id, len(c.tokens))
			}
			if c.tokens[0] != first {
				return fmt.Errorf("node %d keyed by %d but starts with %d", c.id, first, c.tokens[0])
			}
			if len(c.k) != t.cfg.Layers || len(c.v) != t.cfg.Layers {
				return fmt.Errorf("node %d has %d/%d layer matrices", c.id, len(c.k), len(c.v))
			}
			for li := range c.k {
				if c.k[li].Rows != len(c.tokens) || c.v[li].Rows != len(c.tokens) {
					return fmt.Errorf("node %d layer %d rows mismatch token span", c.id, li)
				}
			}
			if c.refs < 0 {
				return fmt.Errorf("node %d has negative refcount %d", c.id, c.refs)
			}
			if c.refs > 0 {
				pinned++
			}
			if c.spilled {
				cold++
				if c.blocks != nil {
					return fmt.Errorf("spilled node %d still holds pool blocks", c.id)
				}
				if len(c.children) != 0 {
					return fmt.Errorf("spilled node %d has children — spills must be leaves", c.id)
				}
			} else {
				nb := c.blockCount(bt)
				resident += nb
				if t.cfg.Pool != nil {
					if len(c.blocks) != nb {
						return fmt.Errorf("node %d spans %d blocks but holds %d pool blocks", c.id, nb, len(c.blocks))
					}
					for _, id := range c.blocks {
						if t.cfg.Pool.BlockRef(id) < 1 {
							return fmt.Errorf("node %d references freed pool block %d", c.id, id)
						}
					}
				}
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if nodes != t.nodes {
		return fmt.Errorf("tree counts %d nodes, walk found %d", t.nodes, nodes)
	}
	if resident != t.resident {
		return fmt.Errorf("tree counts %d resident blocks, walk found %d", t.resident, resident)
	}
	if cold != t.cold {
		return fmt.Errorf("tree counts %d cold nodes, walk found %d", t.cold, cold)
	}
	if pinned != t.pinned {
		return fmt.Errorf("tree counts %d pinned nodes, walk found %d", t.pinned, pinned)
	}
	return nil
}
