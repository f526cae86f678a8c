package batchpolicy

import (
	"testing"

	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/units"
)

// testPool builds a pool of exactly `blocks` blocks of 4 token slots each
// (1 byte per token keeps the budget arithmetic trivial).
func testPool(t *testing.T, blocks int) *kvpage.Manager {
	t.Helper()
	pool, err := kvpage.NewManager(units.Bytes(blocks*4), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pool.TotalBlocks() != blocks {
		t.Fatalf("pool sized %d blocks, want %d", pool.TotalBlocks(), blocks)
	}
	return pool
}

// sched builds a scheduler over a fresh test pool and places one running
// sequence per {prompt, tokens} pair: admitted at the prompt length
// (which reserves blocksFor(prompt)+1 blocks, headroom included) and then
// extended token by token to the target length. This is the only way to
// construct exactly-full pools now that Admit actually reserves the
// headroom block CanAdmit charges.
func sched(t *testing.T, blocks, maxBatch int, seqs ...[2]int) *Scheduler {
	t.Helper()
	s, err := NewScheduler(maxBatch, testPool(t, blocks))
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range seqs {
		prompt, tokens := pr[0], pr[1]
		if err := s.pool.Admit(i, prompt); err != nil {
			t.Fatal(err)
		}
		for tok := prompt; tok < tokens; tok++ {
			if err := s.pool.Extend(i); err != nil {
				t.Fatal(err)
			}
		}
		s.running = append(s.running, Seq{ID: i, Item: Item{Ref: i, PromptLen: prompt, OutputLen: 100}, Context: tokens, Remaining: 100, Prefilled: prompt})
		s.nextID = i + 1
	}
	return s
}

// checkBooks asserts the allocator's books balance: blocks held by the
// running sequences plus the free list must partition the pool.
func checkBooks(t *testing.T, s *Scheduler) {
	t.Helper()
	pool := s.Pool()
	if pool.Live() != s.RunningLen() {
		t.Errorf("pool holds %d live sequences, batch has %d", pool.Live(), s.RunningLen())
	}
	used := 0
	for _, seq := range s.Running() {
		used += pool.Blocks(seq.ID)
	}
	if got := pool.TotalBlocks() - pool.FreeBlocks(); got != used {
		t.Errorf("%d blocks allocated, running sequences account for %d — blocks leaked", got, used)
	}
}

// TestExtendAllSelfPreemption: the regression the original extraction
// guarded. When the youngest sequence is itself the one that cannot
// extend, the preemption loop must evict it and stop — without walking
// past the shrunken batch or re-extending the evicted victim.
func TestExtendAllSelfPreemption(t *testing.T) {
	s := sched(t, 6, 8,
		[2]int{4, 7}, // 2 blocks; extending to 8 tokens needs no new block
		[2]int{4, 7}, // 2 blocks, likewise
		[2]int{4, 8}, // 2 full blocks; extending demands a new one
	)
	if s.Pool().FreeBlocks() != 0 {
		t.Fatalf("setup: want a full pool, %d blocks free", s.Pool().FreeBlocks())
	}
	evicted, err := s.ExtendAll()
	if err != nil {
		t.Fatal(err)
	}
	// Sequence 2 was both the youngest and the one out of room: it must
	// be the (only) eviction, and 0 and 1 must survive extended.
	run := s.Running()
	if len(run) != 2 || run[0].ID != 0 || run[1].ID != 1 {
		t.Fatalf("kept %+v, want sequences 0 and 1", run)
	}
	if len(evicted) != 1 || evicted[0].ID != 2 {
		t.Fatalf("evicted %+v, want exactly the youngest (id 2)", evicted)
	}
	if len(s.requeued) != 1 {
		t.Fatalf("requeued %d items, want the evicted one", len(s.requeued))
	}
	if s.Pool().Tokens(0) != 8 || s.Pool().Tokens(1) != 8 {
		t.Errorf("survivors hold %d and %d tokens, want 8 and 8", s.Pool().Tokens(0), s.Pool().Tokens(1))
	}
	checkBooks(t, s)
}

// TestExtendAllPreemptsYoungestForOldest: when an older sequence needs a
// block, the youngest is the victim and the older retries until its
// extension fits.
func TestExtendAllPreemptsYoungestForOldest(t *testing.T) {
	s := sched(t, 7, 8,
		[2]int{4, 8},  // 2 full blocks: extension allocates
		[2]int{4, 8},  // 2 full blocks: extension allocates
		[2]int{4, 12}, // 3 blocks — the eviction candidate
	)
	if s.Pool().FreeBlocks() != 0 {
		t.Fatalf("setup: want a full pool, %d blocks free", s.Pool().FreeBlocks())
	}
	evicted, err := s.ExtendAll()
	if err != nil {
		t.Fatal(err)
	}
	run := s.Running()
	if len(run) != 2 || run[0].ID != 0 || run[1].ID != 1 {
		t.Fatalf("kept %+v, want sequences 0 and 1", run)
	}
	if len(evicted) != 1 || evicted[0].ID != 2 {
		t.Fatalf("evicted %+v, want 2 (the youngest)", evicted)
	}
	if s.Pool().Tokens(0) != 9 || s.Pool().Tokens(1) != 9 {
		t.Errorf("survivors hold %d and %d tokens, want 9 and 9", s.Pool().Tokens(0), s.Pool().Tokens(1))
	}
	checkBooks(t, s)
}

// TestExtendAllSoleSequenceErrors: preempting the only member of the
// batch would make no progress, so a one-sequence batch that cannot
// extend is a hard error — and must not evict anything.
func TestExtendAllSoleSequenceErrors(t *testing.T) {
	s := sched(t, 2, 8, [2]int{4, 8}) // prompt + headroom block, both full
	evicted, err := s.ExtendAll()
	if err == nil {
		t.Fatal("expected an error extending a sole sequence in a full pool")
	}
	if len(evicted) != 0 {
		t.Fatalf("sole-sequence failure must not evict, got %+v", evicted)
	}
	if s.RunningLen() != 1 {
		t.Fatalf("sole sequence must stay running, batch has %d", s.RunningLen())
	}
}

// TestExtendAllNoPressure: with free blocks available nothing is evicted
// and every sequence's reservation grows by one token.
func TestExtendAllNoPressure(t *testing.T) {
	s := sched(t, 8, 8, [2]int{4, 4}, [2]int{2, 2})
	evicted, err := s.ExtendAll()
	if err != nil {
		t.Fatal(err)
	}
	if s.RunningLen() != 2 || len(evicted) != 0 {
		t.Fatalf("kept %d evicted %d, want 2 and 0", s.RunningLen(), len(evicted))
	}
	if s.Pool().Tokens(0) != 5 || s.Pool().Tokens(1) != 3 {
		t.Errorf("tokens %d and %d, want 5 and 3", s.Pool().Tokens(0), s.Pool().Tokens(1))
	}
	checkBooks(t, s)
}

// TestAdmitRequeuedFirst: preempted work is served before new arrivals.
func TestAdmitRequeuedFirst(t *testing.T) {
	// Three 2-block sequences fill the 6-block pool; extending the two
	// full elders (8→9 tokens each needs a fresh block) evicts the
	// youngest (ref 2) to the requeue list.
	s := sched(t, 6, 8, [2]int{4, 8}, [2]int{4, 8}, [2]int{4, 8})
	evicted, err := s.ExtendAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Item.Ref != 2 {
		t.Fatalf("evicted %+v, want exactly ref 2", evicted)
	}
	if len(s.requeued) != 1 {
		t.Fatalf("requeued %d, want 1", len(s.requeued))
	}
	checkBooks(t, s)
	// Admission must re-admit ref 2 (requeued) before ref 12 (waiting).
	var order []int
	s.OnEvent = func(e Event) {
		if e.Kind == EventAdmit {
			order = append(order, e.Ref)
		}
	}
	for _, seq := range s.Running() {
		if err := s.Remove(seq.ID); err != nil {
			t.Fatal(err)
		}
	}
	adm, consumed := s.Admit([]Item{{Ref: 12, PromptLen: 4, OutputLen: 4}})
	if len(adm) != 2 || consumed != 1 {
		t.Fatalf("admitted %d consumed %d, want 2 and 1", len(adm), consumed)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 12 {
		t.Fatalf("admission order %v, want requeued ref 2 before arrival ref 12", order)
	}
	// The re-admitted sequence got a fresh pool id.
	if adm[0].ID == 2 {
		t.Error("re-admission must assign a new sequence id")
	}
}

// TestReapOrderAndBooks pins the shared reap pass: expired requeued
// work leaves first (Seq -1, nothing emitted), then expired running
// sequences in admission order with their progress intact; unexpired
// work is untouched, every removal is an EventRemove, and the pool's
// books still balance.
func TestReapOrderAndBooks(t *testing.T) {
	s := sched(t, 6, 8, [2]int{4, 8}, [2]int{4, 8}, [2]int{4, 8})
	if _, err := s.ExtendAll(); err != nil { // evicts ref 2 to the requeue
		t.Fatal(err)
	}
	var removed []Event
	s.OnEvent = func(e Event) {
		if e.Kind != EventRemove {
			t.Fatalf("reap emitted %+v", e)
		}
		removed = append(removed, e)
	}
	reaped, err := s.Reap(func(ref int) bool { return ref != 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(reaped) != 2 || reaped[0].Item.Ref != 2 || reaped[0].ID != -1 || reaped[1].Item.Ref != 1 || reaped[1].ID != 1 {
		t.Fatalf("reaped %+v, want requeued ref 2 (id -1) then running ref 1", reaped)
	}
	if got := reaped[0].Item.OutputLen - reaped[0].Remaining; got != 0 {
		t.Errorf("requeued work reports %d emitted tokens, want 0", got)
	}
	want := []Event{{Kind: EventRemove, Ref: 2, Seq: -1}, {Kind: EventRemove, Ref: 1, Seq: 1}}
	if len(removed) != 2 || removed[0] != want[0] || removed[1] != want[1] {
		t.Fatalf("events %+v, want %+v", removed, want)
	}
	if s.RunningLen() != 1 || len(s.requeued) != 0 || s.Running()[0].Item.Ref != 0 {
		t.Fatalf("survivors: %d running, %d requeued", s.RunningLen(), len(s.requeued))
	}
	checkBooks(t, s)
}

// TestSchedulerValidation: a batch cap below one is rejected.
func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(0, nil); err == nil {
		t.Error("MaxBatch=0 accepted")
	}
	if _, err := NewScheduler(1, nil); err != nil {
		t.Errorf("MaxBatch=1 rejected: %v", err)
	}
	if _, err := NewSchedulerKV(0, nil); err == nil {
		t.Error("NewSchedulerKV MaxBatch=0 accepted")
	}
}

// TestSchedulerKVDelegates: a custom KV backend sees exactly the calls
// the plain pool would — admission gets the full Item (Ref included),
// extension and release run per sequence id.
func TestSchedulerKVDelegates(t *testing.T) {
	pool := testPool(t, 6)
	kv := &recordingKV{pool: pool}
	s, err := NewSchedulerKV(4, kv)
	if err != nil {
		t.Fatal(err)
	}
	adm, consumed := s.Admit([]Item{{Ref: 7, PromptLen: 4, OutputLen: 2}})
	if len(adm) != 1 || consumed != 1 {
		t.Fatalf("admitted %d consumed %d", len(adm), consumed)
	}
	if len(kv.admits) != 1 || kv.admits[0] != 7 {
		t.Fatalf("KV saw admit refs %v, want [7]", kv.admits)
	}
	if _, err := s.ExtendAll(); err != nil {
		t.Fatal(err)
	}
	if kv.extends != 1 {
		t.Fatalf("KV saw %d extends, want 1", kv.extends)
	}
	fin, err := s.FinishStep()
	if err != nil {
		t.Fatal(err)
	}
	if len(fin) != 0 {
		t.Fatalf("finished early: %+v", fin)
	}
	if err := s.Remove(adm[0].ID); err != nil {
		t.Fatal(err)
	}
	if kv.releases != 1 {
		t.Fatalf("KV saw %d releases, want 1", kv.releases)
	}
	if pool.Live() != 0 || pool.FreeBlocks() != pool.TotalBlocks() {
		t.Errorf("pool leaked: live=%d free=%d", pool.Live(), pool.FreeBlocks())
	}
}

// recordingKV wraps a pool and records the scheduler's KV traffic.
type recordingKV struct {
	pool     *kvpage.Manager
	admits   []int // refs, proving Item flows through
	extends  int
	releases int
}

func (r *recordingKV) CanAdmit(it Item) bool { return r.pool.CanAdmit(it.PromptLen) }
func (r *recordingKV) Admit(seqID int, it Item) error {
	if err := r.pool.Admit(seqID, it.PromptLen); err != nil {
		return err
	}
	r.admits = append(r.admits, it.Ref)
	return nil
}
func (r *recordingKV) Extend(seqID int) error {
	if err := r.pool.Extend(seqID); err != nil {
		return err
	}
	r.extends++
	return nil
}
func (r *recordingKV) Release(seqID int) error {
	if err := r.pool.Release(seqID); err != nil {
		return err
	}
	r.releases++
	return nil
}

// TestNilPoolUnconstrained: without a pool the policy admits up to the
// batch cap, never evicts, and retires on schedule.
func TestNilPoolUnconstrained(t *testing.T) {
	s, err := NewScheduler(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	adm, consumed := s.Admit([]Item{
		{Ref: 0, PromptLen: 100, OutputLen: 2},
		{Ref: 1, PromptLen: 100, OutputLen: 1},
		{Ref: 2, PromptLen: 100, OutputLen: 1},
	})
	if len(adm) != 2 || consumed != 2 {
		t.Fatalf("admitted %d consumed %d, want the batch cap of 2", len(adm), consumed)
	}
	if ev, err := s.ExtendAll(); err != nil || len(ev) != 0 {
		t.Fatalf("nil pool must never evict: %v %v", ev, err)
	}
	fin, err := s.FinishStep()
	if err != nil {
		t.Fatal(err)
	}
	if len(fin) != 1 || fin[0].Item.Ref != 1 {
		t.Fatalf("finished %+v, want exactly ref 1", fin)
	}
	fin, err = s.FinishStep()
	if err != nil {
		t.Fatal(err)
	}
	if len(fin) != 1 || fin[0].Item.Ref != 0 || s.Busy() {
		t.Fatalf("finished %+v busy=%v, want ref 0 and an idle scheduler", fin, s.Busy())
	}
}
