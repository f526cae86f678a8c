// Package kvpage is a paged KV-cache allocator: host (or CXL) memory is
// carved into fixed-size blocks of token slots, and each sequence's cache
// grows block by block instead of reserving its full maximum length up
// front. This is the memory-management substrate behind the serving
// layer's continuous batching — the §6 capacity pressure (KV cache
// dominating the 1.6 TB footprint) is exactly what paging relieves, by
// bounding per-sequence waste to one partial block.
//
// Blocks are refcounted so the prefix cache (internal/kvprefix) can share
// one physical block between the radix tree and every live sequence that
// reuses it: the tree owns cached blocks via AllocBlocks/ReleaseBlocks,
// and AdmitShared charges a new sequence only for its unshared suffix
// while retaining the shared prefix blocks it borrows.
package kvpage

import (
	"fmt"
	"sort"

	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// Manager allocates fixed-size KV blocks to sequences.
type Manager struct {
	blockTokens int
	totalBlocks int
	freeBlocks  []int
	refs        []int32 // per-block owner count; 0 ⇔ on the free list
	seqs        map[int]*sequence
	rawBlocks   int // blocks owned directly via AllocBlocks (prefix tree)
	bytesPerTok units.Bytes
}

// sequence tracks one request's cache.
type sequence struct {
	blocks []int
	shared int // leading blocks borrowed from the prefix cache (refcounted, not exclusive)
	tokens int
}

// NewManager builds an allocator over a memory budget. blockTokens is the
// page size in token slots; bytesPerToken is the model's full-stack KV
// footprint per token (all layers, K and V).
func NewManager(budget units.Bytes, blockTokens int, bytesPerToken units.Bytes) (*Manager, error) {
	if blockTokens < 1 {
		return nil, fmt.Errorf("kvpage: block size %d must be ≥1 token", blockTokens)
	}
	if bytesPerToken <= 0 {
		return nil, fmt.Errorf("kvpage: bytes/token must be positive")
	}
	blockBytes := bytesPerToken * units.Bytes(blockTokens)
	total := int(float64(budget) / float64(blockBytes))
	if total < 1 {
		return nil, fmt.Errorf("kvpage: budget %v holds no %v blocks", budget, blockBytes)
	}
	m := &Manager{
		blockTokens: blockTokens,
		totalBlocks: total,
		refs:        make([]int32, total),
		seqs:        make(map[int]*sequence),
		bytesPerTok: bytesPerToken,
	}
	m.freeBlocks = make([]int, total)
	for i := range m.freeBlocks {
		m.freeBlocks[i] = total - 1 - i // pop from the end → ascending IDs
	}
	return m, nil
}

// ForModel derives the per-token KV footprint from a model config.
func ForModel(budget units.Bytes, blockTokens int, cfg model.Config) (*Manager, error) {
	return NewManager(budget, blockTokens, cfg.KVBytes(1, 1))
}

// TotalBlocks returns the pool size.
func (m *Manager) TotalBlocks() int { return m.totalBlocks }

// BlockTokens returns the page size in token slots.
func (m *Manager) BlockTokens() int { return m.blockTokens }

// BytesPerToken returns the per-token KV footprint the pool was sized by.
func (m *Manager) BytesPerToken() units.Bytes { return m.bytesPerTok }

// FreeBlocks returns how many blocks are unallocated.
func (m *Manager) FreeBlocks() int { return len(m.freeBlocks) }

// blocksFor returns how many blocks `tokens` slots occupy.
func (m *Manager) blocksFor(tokens int) int {
	return (tokens + m.blockTokens - 1) / m.blockTokens
}

// AdmitBlocks is how many free blocks admitting a promptTokens-token
// prompt costs when its first shared blocks are already held (by the
// prefix cache): its unshared blocks plus one block of headroom for its
// first generated tokens. CanAdmit and AdmitShared charge it, and so
// does any admission policy that discounts shared prefixes, so the rule
// lives here once.
func (m *Manager) AdmitBlocks(promptTokens, shared int) int {
	return m.blocksFor(promptTokens) - shared + 1
}

// CanAdmit reports whether a new sequence with the given prompt length
// (plus one block of headroom for its first generated tokens) fits now.
func (m *Manager) CanAdmit(promptTokens int) bool {
	return m.AdmitBlocks(promptTokens, 0) <= len(m.freeBlocks)
}

// Admit allocates blocks for a new sequence's prompt, including the one
// headroom block CanAdmit charges, so an admitted sequence is guaranteed
// its first block-boundary extension. (Before this reservation, CanAdmit
// checked blocksFor+1 but Admit popped only blocksFor — two admits could
// both pass the check against the same last free block and then both fail
// their first Extend.) Sequence IDs must be unique among live sequences.
func (m *Manager) Admit(seqID, promptTokens int) error {
	return m.AdmitShared(seqID, promptTokens, nil)
}

// AdmitShared admits a sequence whose leading blocks are shared with the
// prefix cache: shared lists pool block IDs (in prompt order) that already
// hold the first len(shared)×blockTokens prompt tokens. The sequence
// retains those blocks (refcount, counted once pool-wide) and pops only
// its unshared suffix plus the one-block headroom from the free list.
func (m *Manager) AdmitShared(seqID, promptTokens int, shared []int) error {
	if _, exists := m.seqs[seqID]; exists {
		return fmt.Errorf("kvpage: sequence %d already admitted", seqID)
	}
	if promptTokens < 1 {
		return fmt.Errorf("kvpage: prompt must be ≥1 token")
	}
	if len(shared)*m.blockTokens >= promptTokens {
		return fmt.Errorf("kvpage: %d shared blocks cover the whole %d-token prompt", len(shared), promptTokens)
	}
	for _, id := range shared {
		if id < 0 || id >= m.totalBlocks {
			return fmt.Errorf("kvpage: shared block %d out of range", id)
		}
		if m.refs[id] == 0 {
			return fmt.Errorf("kvpage: shared block %d is free", id)
		}
	}
	need := m.AdmitBlocks(promptTokens, len(shared))
	if need > len(m.freeBlocks) {
		return fmt.Errorf("kvpage: need %d blocks, %d free", need, len(m.freeBlocks))
	}
	s := &sequence{tokens: promptTokens, shared: len(shared)}
	s.blocks = append(append([]int{}, shared...), m.pop(need)...)
	for _, id := range shared {
		m.refs[id]++
	}
	m.seqs[seqID] = s
	return nil
}

// Extend appends one generated token to a sequence, allocating a new
// block when the current one fills. Thanks to the admission headroom
// block, a freshly admitted sequence never allocates on its first
// boundary crossing.
func (m *Manager) Extend(seqID int) error {
	s, ok := m.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvpage: unknown sequence %d", seqID)
	}
	s.tokens++
	if m.blocksFor(s.tokens) > len(s.blocks) {
		if len(m.freeBlocks) == 0 {
			s.tokens-- // roll back; caller must evict or wait
			return fmt.Errorf("kvpage: out of blocks extending sequence %d", seqID)
		}
		s.blocks = append(s.blocks, m.pop(1)...)
	}
	return nil
}

// Release frees a finished sequence's blocks. Shared prefix blocks drop
// one reference and stay allocated as long as the tree (or another
// sequence) still holds them.
func (m *Manager) Release(seqID int) error {
	s, ok := m.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvpage: unknown sequence %d", seqID)
	}
	for _, id := range s.blocks {
		m.unref(id)
	}
	delete(m.seqs, seqID)
	return nil
}

// AllocBlocks pops n blocks for a direct owner (the prefix cache's radix
// tree); they are not tied to any sequence and must be returned with
// ReleaseBlocks.
func (m *Manager) AllocBlocks(n int) ([]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("kvpage: negative block count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if n > len(m.freeBlocks) {
		return nil, fmt.Errorf("kvpage: need %d blocks, %d free", n, len(m.freeBlocks))
	}
	m.rawBlocks += n
	return m.pop(n), nil
}

// ReleaseBlocks drops one reference from each directly-owned block;
// blocks return to the free list when no sequence still shares them.
func (m *Manager) ReleaseBlocks(ids []int) error {
	for _, id := range ids {
		if id < 0 || id >= m.totalBlocks {
			return fmt.Errorf("kvpage: block %d out of range", id)
		}
		if m.refs[id] == 0 {
			return fmt.Errorf("kvpage: block %d already free", id)
		}
	}
	for _, id := range ids {
		m.unref(id)
	}
	m.rawBlocks -= len(ids)
	if m.rawBlocks < 0 {
		return fmt.Errorf("kvpage: released more direct blocks than allocated")
	}
	return nil
}

// BlockRef returns a block's current reference count (invariant checks).
func (m *Manager) BlockRef(id int) int {
	if id < 0 || id >= m.totalBlocks {
		return 0
	}
	return int(m.refs[id])
}

// Live returns the number of admitted sequences.
func (m *Manager) Live() int { return len(m.seqs) }

// Tokens returns a sequence's current cache length (0 if unknown).
func (m *Manager) Tokens(seqID int) int {
	if s, ok := m.seqs[seqID]; ok {
		return s.tokens
	}
	return 0
}

// Blocks returns how many blocks a sequence holds (0 if unknown),
// including shared prefix blocks and the admission headroom block.
func (m *Manager) Blocks(seqID int) int {
	if s, ok := m.seqs[seqID]; ok {
		return len(s.blocks)
	}
	return 0
}

// Stats summarizes pool occupancy.
type Stats struct {
	// TotalBlocks, UsedBlocks and FreeBlocks partition the pool.
	TotalBlocks, UsedBlocks, FreeBlocks int
	// UsedTokens counts live token slots actually occupied. Shared prefix
	// blocks are counted once (as tree-owned, fully occupied blocks), not
	// once per sequence borrowing them.
	UsedTokens int
	// InternalWaste is the fraction of allocated slots that hold no token
	// (each sequence's partial last block plus its reserved headroom
	// block) — the quantity paging keeps to at most two blocks per
	// sequence, versus max-length reservation's (maxLen − len)/maxLen.
	InternalWaste float64
	// UsedBytes is the allocated footprint.
	UsedBytes units.Bytes
}

// Stats returns the current occupancy.
func (m *Manager) Stats() Stats {
	st := Stats{TotalBlocks: m.totalBlocks, FreeBlocks: len(m.freeBlocks)}
	st.UsedBlocks = m.totalBlocks - st.FreeBlocks
	st.UsedTokens = m.rawBlocks * m.blockTokens
	for _, s := range m.seqs {
		st.UsedTokens += s.tokens - s.shared*m.blockTokens
	}
	allocSlots := st.UsedBlocks * m.blockTokens
	if allocSlots > 0 {
		st.InternalWaste = 1 - float64(st.UsedTokens)/float64(allocSlots)
	}
	st.UsedBytes = m.bytesPerTok * units.Bytes(allocSlots)
	return st
}

// MaxConcurrentSequences answers the §6-style capacity question under
// paging: how many sequences of the given mean total length fit the
// budget, accounting for per-sequence partial-block waste and the
// one-block admission headroom CanAdmit charges. (The formula previously
// omitted the headroom block, overstating capacity relative to what
// admission actually accepts.)
func (m *Manager) MaxConcurrentSequences(meanTotalTokens int) int {
	return m.MaxConcurrentSequencesShared(meanTotalTokens, 0)
}

// MaxConcurrentSequencesShared is MaxConcurrentSequences when every
// sequence's first sharedPrefixTokens tokens come from a common cached
// prefix: the prefix's full blocks are charged once pool-wide, and each
// sequence pays only its unshared suffix plus the admission headroom.
func (m *Manager) MaxConcurrentSequencesShared(meanTotalTokens, sharedPrefixTokens int) int {
	if meanTotalTokens < 1 {
		return 0
	}
	if sharedPrefixTokens < 0 {
		sharedPrefixTokens = 0
	}
	if sharedPrefixTokens >= meanTotalTokens {
		sharedPrefixTokens = meanTotalTokens - 1
	}
	sharedBlocks := sharedPrefixTokens / m.blockTokens // only whole blocks are reusable
	perSeq := m.blocksFor(meanTotalTokens) - sharedBlocks + 1
	avail := m.totalBlocks - sharedBlocks
	if avail < perSeq {
		return 0
	}
	return avail / perSeq
}

// pop removes n blocks from the free list and marks them owned.
func (m *Manager) pop(n int) []int {
	out := make([]int, n)
	copy(out, m.freeBlocks[len(m.freeBlocks)-n:])
	m.freeBlocks = m.freeBlocks[:len(m.freeBlocks)-n]
	sort.Ints(out)
	for _, id := range out {
		m.refs[id] = 1
	}
	return out
}

// unref drops one reference, returning the block to the free list at zero.
func (m *Manager) unref(id int) {
	m.refs[id]--
	if m.refs[id] == 0 {
		m.freeBlocks = append(m.freeBlocks, id)
	}
}
