// Package batchpolicy is the iteration-level continuous-batching policy
// shared by the serving simulator (internal/serve) and the live serving
// gateway (internal/gateway): FIFO admission with eager KV-block
// reservation, youngest-first preemption under paged-KV pressure, and
// immediate retirement of finished sequences. Extracting the policy into
// one package is what lets the differential test pin the simulator and
// the gateway to the exact same admission/preemption/completion order —
// the LLMServingSim-style alignment the ROADMAP calls for.
//
// The Scheduler is deliberately single-goroutine: the simulator runs it
// inline and the gateway confines it to the batcher goroutine, so the
// policy itself needs no locks and stays a deterministic state machine.
package batchpolicy

import (
	"fmt"

	"github.com/lia-sim/lia/internal/kvpage"
)

// Item is one piece of admittable work: the caller-side handle plus the
// lengths the policy needs for KV-block accounting.
type Item struct {
	// Ref is the caller's handle for the request (trace index for the
	// simulator, request serial for the gateway). It survives preemption:
	// a re-admitted request keeps its Ref but receives a fresh Seq ID.
	Ref int
	// PromptLen is the prompt length in tokens (KV blocks reserved at
	// admission).
	PromptLen int
	// OutputLen is the number of tokens to generate.
	OutputLen int
}

// Seq is one running sequence's scheduler-visible state. The batch is
// ordered by admission, so the slice's last element is always the
// youngest — the preemption victim.
type Seq struct {
	// ID is the KV-pool sequence id, unique per admission (a preempted
	// and re-admitted request gets a new one).
	ID int
	// Item is the admitted work.
	Item Item
	// Context is the tokens in the KV cache; Remaining the output tokens
	// still to produce.
	Context   int
	Remaining int
	// Prefilled is how many prompt tokens have been computed so far.
	// Under monolithic prefill (chunk 0) it equals PromptLen from
	// admission; under chunked prefill it starts at 0 and AdvancePrefills
	// walks it forward chunk tokens per round. A preempted and
	// re-admitted sequence restarts at 0 (full recomputation).
	Prefilled int
}

// Prefilling reports whether prompt chunks remain to be computed before
// the sequence can decode.
func (q Seq) Prefilling() bool { return q.Prefilled < q.Item.PromptLen }

// EventKind labels a scheduling decision.
type EventKind uint8

// Scheduling decisions, in the order the policy can make them for one
// request: admitted (possibly again after preemption), preempted,
// completed — or removed mid-flight (the gateway's cancellation path and
// the scenario harness's cancel storms observe removals through the same
// event stream as every other decision).
const (
	EventAdmit EventKind = iota
	EventPreempt
	EventComplete
	EventRemove
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventAdmit:
		return "admit"
	case EventPreempt:
		return "preempt"
	case EventComplete:
		return "complete"
	case EventRemove:
		return "remove"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event records one scheduling decision — the differential test compares
// the full event streams of the simulator and the gateway replay.
type Event struct {
	Kind EventKind
	// Ref is the request's caller handle, Seq its pool id at the time of
	// the decision.
	Ref, Seq int
}

// KV is the admission-capacity interface the scheduler charges: the
// plain paged pool (NewScheduler wraps kvpage.Manager) or the gateway's
// prefix-cache admitter, which discounts the shared-prefix blocks a
// prompt can reuse. Item (not just PromptLen) flows into the admission
// calls so an implementation can resolve Ref back to the actual prompt.
// Implementations are driven from the scheduler's single goroutine.
type KV interface {
	// CanAdmit reports whether the item's prompt fits now.
	CanAdmit(it Item) bool
	// Admit reserves the item's prompt blocks under the sequence id.
	Admit(seqID int, it Item) error
	// Extend grows the sequence's reservation by one token slot.
	Extend(seqID int) error
	// Release frees the sequence's reservation.
	Release(seqID int) error
}

// poolKV adapts the plain paged pool to the KV interface.
type poolKV struct{ m *kvpage.Manager }

func (p poolKV) CanAdmit(it Item) bool          { return p.m.CanAdmit(it.PromptLen) }
func (p poolKV) Admit(seqID int, it Item) error { return p.m.Admit(seqID, it.PromptLen) }
func (p poolKV) Extend(seqID int) error         { return p.m.Extend(seqID) }
func (p poolKV) Release(seqID int) error        { return p.m.Release(seqID) }

// Scheduler owns the continuous-batching state: the running batch, the
// requeue list of preempted work (served before new arrivals), and the
// optional KV admission backend. It must be driven from a single
// goroutine.
type Scheduler struct {
	maxBatch int
	pool     *kvpage.Manager // nil when constructed via NewSchedulerKV or unconstrained
	kv       KV              // nil = unconstrained
	chunk    int             // 0 = monolithic prefill
	running  []Seq
	requeued []Item
	nextID   int

	// OnEvent, when set, observes every scheduling decision in order.
	OnEvent func(Event)
}

// NewScheduler builds a scheduler over an optional paged KV pool
// (nil pool = unconstrained admission up to maxBatch).
func NewScheduler(maxBatch int, pool *kvpage.Manager) (*Scheduler, error) {
	if maxBatch < 1 {
		return nil, fmt.Errorf("batchpolicy: max batch must be ≥1, got %d", maxBatch)
	}
	s := &Scheduler{maxBatch: maxBatch, pool: pool}
	if pool != nil {
		s.kv = poolKV{pool}
	}
	return s, nil
}

// NewSchedulerKV builds a scheduler over a custom KV admission backend
// (nil = unconstrained). The policy — FIFO admission, youngest-first
// preemption, immediate retirement — is identical to NewScheduler's;
// only the capacity arithmetic is delegated.
func NewSchedulerKV(maxBatch int, kv KV) (*Scheduler, error) {
	if maxBatch < 1 {
		return nil, fmt.Errorf("batchpolicy: max batch must be ≥1, got %d", maxBatch)
	}
	return &Scheduler{maxBatch: maxBatch, kv: kv}, nil
}

// event emits e to the observer, if any.
func (s *Scheduler) event(kind EventKind, ref, seq int) {
	if s.OnEvent != nil {
		s.OnEvent(Event{Kind: kind, Ref: ref, Seq: seq})
	}
}

// Running returns the running batch in admission order. The slice is a
// snapshot; mutating it does not affect the scheduler.
func (s *Scheduler) Running() []Seq {
	out := make([]Seq, len(s.running))
	copy(out, s.running)
	return out
}

// RunningLen returns the running batch's size.
func (s *Scheduler) RunningLen() int { return len(s.running) }

// Busy reports whether any work is running or awaiting re-admission.
func (s *Scheduler) Busy() bool { return len(s.running) > 0 || len(s.requeued) > 0 }

// Pool returns the paged KV pool (nil when unconstrained).
func (s *Scheduler) Pool() *kvpage.Manager { return s.pool }

// SetChunk switches admission to chunked prefill: newly admitted
// sequences start with Prefilled 0 and AdvancePrefills walks them
// forward chunk prompt tokens per round, so long prompts stop
// monopolizing whole rounds and decode latency for the rest of the
// batch stays bounded. 0 restores monolithic prefill. Sequences already
// running keep the mode they were admitted under.
func (s *Scheduler) SetChunk(chunk int) error {
	if chunk < 0 {
		return fmt.Errorf("batchpolicy: prefill chunk must be ≥0, got %d", chunk)
	}
	s.chunk = chunk
	return nil
}

// Chunk returns the prefill chunk size (0 = monolithic).
func (s *Scheduler) Chunk() int { return s.chunk }

// tryReserve admits one item if the batch has room and the pool can hold
// its prompt, reserving blocks eagerly so one admission wave cannot
// over-commit.
func (s *Scheduler) tryReserve(it Item) bool {
	if len(s.running) >= s.maxBatch {
		return false
	}
	if s.kv != nil {
		if !s.kv.CanAdmit(it) {
			return false
		}
		if err := s.kv.Admit(s.nextID, it); err != nil {
			return false
		}
	}
	seq := Seq{ID: s.nextID, Item: it, Context: it.PromptLen, Remaining: it.OutputLen, Prefilled: it.PromptLen}
	if s.chunk > 0 {
		seq.Prefilled = 0
	}
	s.nextID++
	s.running = append(s.running, seq)
	s.event(EventAdmit, it.Ref, seq.ID)
	return true
}

// Admit admits work into the running batch: preempted (requeued) items
// first, then the waiting list in order, while the batch and the pool
// both have room. Admission is FIFO-blocking within each list — the
// first item that cannot reserve its blocks stops that list — but a
// stuck requeued head does not block smaller arrivals (same semantics
// the simulator always had). It returns the newly admitted sequences in
// admission order and how many items were consumed from waiting.
func (s *Scheduler) Admit(waiting []Item) (admitted []Seq, consumed int) {
	first := len(s.running)
	for len(s.requeued) > 0 && s.tryReserve(s.requeued[0]) {
		s.requeued = s.requeued[1:]
	}
	for consumed < len(waiting) && s.tryReserve(waiting[consumed]) {
		consumed++
	}
	if len(s.running) > first {
		admitted = make([]Seq, len(s.running)-first)
		copy(admitted, s.running[first:])
	}
	return admitted, consumed
}

// ExtendAll grows every running sequence's KV reservation by one token
// slot ahead of a decode iteration. When the pool cannot supply a block,
// the youngest sequence is preempted — its blocks released and its item
// moved to the requeue list for full recomputation — and the allocation
// retries, repeating until the extension fits. If the victim is the very
// sequence being extended (it was both the youngest and the one that
// failed), extension stops there: everything before it already holds its
// new block. Errors when even a one-sequence batch cannot extend, since
// preempting the only member would make no progress. With a nil pool it
// is a no-op.
// Sequences still prefilling are skipped — their prompt blocks were
// reserved in full at admission and they do not decode this round.
func (s *Scheduler) ExtendAll() (evicted []Seq, err error) {
	if s.kv == nil {
		return nil, nil
	}
	for i := 0; i < len(s.running); i++ {
		if s.running[i].Prefilling() {
			continue
		}
		for s.kv.Extend(s.running[i].ID) != nil {
			if len(s.running) <= 1 {
				return nil, fmt.Errorf("batchpolicy: KV pool cannot extend the sole running sequence")
			}
			last := s.running[len(s.running)-1]
			s.running = s.running[:len(s.running)-1]
			if err := s.kv.Release(last.ID); err != nil {
				return nil, err
			}
			s.requeued = append(s.requeued, last.Item)
			s.event(EventPreempt, last.Item.Ref, last.ID)
			evicted = append(evicted, last)
			if i >= len(s.running) {
				return evicted, nil
			}
		}
	}
	return evicted, nil
}

// FinishStep accounts one completed decode iteration: every running
// sequence gains a context token and owes one fewer, and sequences that
// just emitted their last token retire immediately, releasing their
// blocks. Sequences still prefilling are untouched (they did not
// decode). It returns the finished sequences in batch order.
func (s *Scheduler) FinishStep() (finished []Seq, err error) {
	return s.finishCounts(nil)
}

// FinishStepN accounts one variable-token decode iteration — the
// speculative-decoding counterpart of FinishStep. emitted maps a
// sequence's pool ID to how many tokens its round produced (a
// draft-and-verify round emits 1+accepted); IDs absent from the map
// account zero tokens. Emitting at or past the sequence's remaining
// budget retires it. Prefilling sequences are untouched.
func (s *Scheduler) FinishStepN(emitted map[int]int) (finished []Seq, err error) {
	if emitted == nil {
		return nil, fmt.Errorf("batchpolicy: nil emitted counts")
	}
	return s.finishCounts(emitted)
}

// finishCounts retires sequences after a decode round. nil counts means
// one token for every non-prefilling sequence.
func (s *Scheduler) finishCounts(counts map[int]int) (finished []Seq, err error) {
	kept := s.running[:0]
	for _, seq := range s.running {
		n := 1
		if counts != nil {
			n = counts[seq.ID]
		}
		if seq.Prefilling() || n <= 0 {
			kept = append(kept, seq)
			continue
		}
		seq.Context += n
		seq.Remaining -= n
		if seq.Remaining <= 0 {
			if s.kv != nil {
				if err := s.kv.Release(seq.ID); err != nil {
					return nil, err
				}
			}
			s.event(EventComplete, seq.Item.Ref, seq.ID)
			finished = append(finished, seq)
		} else {
			kept = append(kept, seq)
		}
	}
	s.running = kept
	return finished, nil
}

// AdvancePrefills returns the still-prefilling sequences (admission
// order, pre-advance positions — Prefilled is each one's chunk start)
// and then walks every one forward by the chunk size, clamped to its
// prompt length. The caller executes the returned chunk assignments;
// a sequence whose Prefilled reaches PromptLen decodes from this round
// on (its first pending token is computed by the final chunk).
func (s *Scheduler) AdvancePrefills() []Seq {
	var snap []Seq
	for i := range s.running {
		if !s.running[i].Prefilling() {
			continue
		}
		snap = append(snap, s.running[i])
		next := s.running[i].Prefilled + s.chunk
		if s.chunk <= 0 || next > s.running[i].Item.PromptLen {
			next = s.running[i].Item.PromptLen
		}
		s.running[i].Prefilled = next
	}
	return snap
}

// Ready returns the running sequences whose prompt is fully prefilled
// (admission order, snapshot).
func (s *Scheduler) Ready() []Seq {
	var out []Seq
	for _, seq := range s.running {
		if !seq.Prefilling() {
			out = append(out, seq)
		}
	}
	return out
}

// TryExtend grows one running sequence's KV reservation by a single
// token slot without preempting anyone, reporting whether the pool had
// room. Speculative decoding uses it to top a sequence's allowance up
// to γ+1 slots before a draft-and-verify round: a false return just
// caps that round's draft depth, it is never fatal. With a nil pool it
// always succeeds.
func (s *Scheduler) TryExtend(id int) bool {
	if s.kv == nil {
		return true
	}
	for _, seq := range s.running {
		if seq.ID == id {
			return s.kv.Extend(id) == nil
		}
	}
	return false
}

// Remove drops a running sequence by pool id without requeueing it (the
// gateway's cancellation path), releasing its blocks. A successful
// removal is a scheduling decision like any other: observers see it as
// an EventRemove, which is how cancel storms show up in the event
// stream the differential and scenario harnesses compare.
func (s *Scheduler) Remove(id int) error {
	for i, seq := range s.running {
		if seq.ID == id {
			s.running = append(s.running[:i], s.running[i+1:]...)
			s.event(EventRemove, seq.Item.Ref, seq.ID)
			if s.kv != nil {
				return s.kv.Release(id)
			}
			return nil
		}
	}
	return fmt.Errorf("batchpolicy: sequence %d is not running", id)
}

// DropRequeued removes requeued items for which drop returns true (the
// gateway's cancellation path for preempted work) and returns them.
// Dropped items emit EventRemove with Seq -1: they held no pool id at
// the time of the decision (preemption already released it).
func (s *Scheduler) DropRequeued(drop func(Item) bool) []Item {
	var dropped []Item
	kept := s.requeued[:0]
	for _, it := range s.requeued {
		if drop(it) {
			dropped = append(dropped, it)
			s.event(EventRemove, it.Ref, -1)
		} else {
			kept = append(kept, it)
		}
	}
	s.requeued = kept
	return dropped
}

// Reap removes every piece of scheduler-owned work whose request has
// expired — requeued items first, then running sequences in admission
// order — and returns it in that order. This is the one reap decision
// the live batcher's reapCanceled and the virtual serve.Machine share
// (callers filter their own waiting list with the same predicate first;
// the scheduler never sees it). Requeued work comes back as a Seq with
// ID -1 and nothing emitted, matching the EventRemove it raised. A
// release error does not stop the pass — the work is gone either way —
// and the first one is returned alongside the full list.
func (s *Scheduler) Reap(expired func(ref int) bool) (reaped []Seq, err error) {
	for _, it := range s.DropRequeued(func(it Item) bool { return expired(it.Ref) }) {
		reaped = append(reaped, Seq{ID: -1, Item: it, Remaining: it.OutputLen})
	}
	for _, seq := range s.Running() {
		if !expired(seq.Item.Ref) {
			continue
		}
		if rmErr := s.Remove(seq.ID); rmErr != nil && err == nil {
			err = rmErr
		}
		reaped = append(reaped, seq)
	}
	return reaped, err
}
