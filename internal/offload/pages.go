package offload

import (
	"container/list"
	"errors"
	"fmt"

	"github.com/lia-sim/lia/internal/cxl"
)

// kvPage is one KV-cache page: PageTokens positions across all layers of
// one sequence.
type kvPage struct {
	alloc   *Allocation
	cacheID int64
	idx     int           // page index within its cache
	elem    *list.Element // LRU position while the page is in the KV tier
}

// cacheState tracks one hosted KV cache's pages.
type cacheState struct {
	id    int64
	rows  int // high-water mark of appended positions
	pages []*kvPage
	// fetched is how many pages have ever been allocated: pages are first
	// allocated in index order, so those are pages [0, fetched), and a
	// nil one among them was evicted.
	fetched int
}

// pageTable implements the §6 KV paging policy: hot pages live in the KV
// tier (DDR under the paper's placement), a global LRU orders them, and
// capacity pressure first spills the coldest page toward CXL, then
// evicts it outright when even the expanders are full. Callers hold the
// host's lock; the table itself is not concurrency-safe.
type pageTable struct {
	plan *Plan
	mgr  *Manager

	caches map[int64]*cacheState
	lru    *list.List // of *kvPage, front = coldest

	spills    uint64
	evictions uint64
	refetches uint64
	overflows uint64
}

func newPageTable(plan *Plan, mgr *Manager) *pageTable {
	return &pageTable{plan: plan, mgr: mgr, caches: make(map[int64]*cacheState), lru: list.New()}
}

func (pt *pageTable) createCache(id int64) {
	if _, ok := pt.caches[id]; ok {
		return
	}
	pt.caches[id] = &cacheState{id: id}
}

func (pt *pageTable) retireCache(id int64) {
	cs, ok := pt.caches[id]
	if !ok {
		return
	}
	for _, pg := range cs.pages {
		pt.dropPage(pg)
	}
	delete(pt.caches, id)
}

// dropPage releases a page's tier residency and LRU slot.
func (pt *pageTable) dropPage(pg *kvPage) {
	if pg == nil {
		return
	}
	if pg.elem != nil {
		pt.lru.Remove(pg.elem)
		pg.elem = nil
	}
	pt.mgr.Free(pg.alloc)
}

// ensure grows cache id to hold totalRows positions, allocating (or
// re-fetching evicted) pages in the KV tier and returning the bytes of
// freshly allocated page space.
func (pt *pageTable) ensure(id int64, totalRows int) error {
	cs, ok := pt.caches[id]
	if !ok {
		return fmt.Errorf("offload: ensure on unknown cache %d", id)
	}
	if totalRows > cs.rows {
		cs.rows = totalRows
	}
	need := (cs.rows + pt.plan.Cfg.PageTokens - 1) / pt.plan.Cfg.PageTokens
	for len(cs.pages) < need {
		cs.pages = append(cs.pages, nil)
	}
	for i, pg := range cs.pages[:need] {
		if pg != nil {
			continue
		}
		npg, err := pt.allocPage(cs, i)
		if err != nil {
			pt.overflows++
			return err
		}
		cs.pages[i] = npg
		if i < cs.fetched {
			pt.refetches++ // allocated before, then evicted
		} else {
			cs.fetched = i + 1
		}
	}
	return nil
}

// allocPage allocates one page in the KV tier, spilling or evicting the
// globally coldest page until it fits.
func (pt *pageTable) allocPage(cs *cacheState, idx int) (*kvPage, error) {
	label := fmt.Sprintf("kv/cache%d/page%d", cs.id, idx)
	for {
		alloc, err := pt.mgr.Alloc(pt.plan.KVTier, cxl.KVCache, label, pt.plan.PageBytes)
		if err == nil {
			pg := &kvPage{alloc: alloc, cacheID: cs.id, idx: idx}
			pg.elem = pt.lru.PushBack(pg)
			return pg, nil
		}
		if !errors.Is(err, ErrTierFull) {
			return nil, err
		}
		if !pt.reclaimColdest() {
			return nil, fmt.Errorf("offload: kv tier exhausted and nothing left to evict: %w", err)
		}
	}
}

// reclaimColdest frees KV-tier space by one page: spill it to CXL when
// the pool can take it (§6: cold KV is the spill class), else evict it.
// Returns false when the LRU is empty.
func (pt *pageTable) reclaimColdest() bool {
	front := pt.lru.Front()
	if front == nil {
		return false
	}
	pg := front.Value.(*kvPage)
	pt.lru.Remove(front)
	pg.elem = nil
	if pt.plan.KVTier != CXL && !pt.plan.Pool.Empty() {
		if err := pt.mgr.Move(pg.alloc, CXL); err == nil {
			pt.spills++
			return true
		}
	}
	// Eviction: the page leaves the tiered model entirely; a later access
	// re-fetches it. The functional engine still holds the values — the
	// hooks are observational — so tokens are unaffected.
	pt.evictions++
	pt.mgr.Free(pg.alloc)
	if cs, ok := pt.caches[pg.cacheID]; ok && pg.idx < len(cs.pages) && cs.pages[pg.idx] == pg {
		cs.pages[pg.idx] = nil
	}
	return true
}

// touch marks cache id's resident pages most-recently-used, preserving
// their relative page order.
func (pt *pageTable) touch(id int64) {
	cs, ok := pt.caches[id]
	if !ok {
		return
	}
	for _, pg := range cs.pages {
		if pg != nil && pg.elem != nil {
			pt.lru.MoveToBack(pg.elem)
		}
	}
}
