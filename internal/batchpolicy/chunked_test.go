package batchpolicy

import (
	"reflect"
	"testing"
)

// TestChunkedRoundInterleavesPrefillAndDecode drives the chunk>0 Round
// flow end to end: a long prompt is admitted while another sequence is
// mid-decode, and every round must carry BOTH one prompt chunk and one
// decode iteration — the interleaving that bounds the running batch's
// inter-token latency while the long arrival trickles in.
func TestChunkedRoundInterleavesPrefillAndDecode(t *testing.T) {
	s, err := NewScheduler(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetChunk(2); err != nil {
		t.Fatal(err)
	}

	short := Item{Ref: 0, PromptLen: 1, OutputLen: 8}
	long := Item{Ref: 1, PromptLen: 5, OutputLen: 2}
	queue := []Item{short}

	type round struct {
		chunks [][2]int // (seqID, chunk start) per PrefillChunk call
		steps  []int    // seq IDs handed to Step
	}
	var log []round
	h := Hooks{
		Waiting:  func() []Item { return queue },
		Consumed: func(n int) { queue = queue[n:] },
		PrefillChunk: func(prefilling []Seq) error {
			var cur round
			for _, q := range prefilling {
				cur.chunks = append(cur.chunks, [2]int{q.ID, q.Prefilled})
			}
			log = append(log, cur)
			return nil
		},
		Step: func(running []Seq) error {
			if len(log) == 0 || log[len(log)-1].steps != nil {
				log = append(log, round{})
			}
			for _, q := range running {
				log[len(log)-1].steps = append(log[len(log)-1].steps, q.ID)
			}
			return nil
		},
	}

	// Round 1: short admitted, its single chunk covers the whole prompt.
	if ok, err := Round(s, h); err != nil || !ok {
		t.Fatalf("round 1: ok=%v err=%v", ok, err)
	}
	// Round 2: long arrives; short decodes in the same rounds long chunks.
	queue = append(queue, long)
	for i := 0; i < 3; i++ {
		if ok, err := Round(s, h); err != nil || !ok {
			t.Fatalf("round %d: ok=%v err=%v", i+2, err, ok)
		}
	}

	want := []round{
		{chunks: [][2]int{{0, 0}}, steps: []int{0}},    // short: chunk + first decode same round
		{chunks: [][2]int{{1, 0}}, steps: []int{0}},    // long chunk [0,2), short decodes
		{chunks: [][2]int{{1, 2}}, steps: []int{0}},    // long chunk [2,4)
		{chunks: [][2]int{{1, 4}}, steps: []int{0, 1}}, // final chunk [4,5) → long joins decode
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("round log:\n got %+v\nwant %+v", log, want)
	}
	// Long finished prefilling and emitted one token per decode round.
	for _, q := range s.Running() {
		if q.Prefilling() {
			t.Fatalf("sequence %d still prefilling after its chunks ran", q.ID)
		}
	}
}

// TestChunkedPreemptionRestartsPrefill: evicting a prefilling sequence
// requeues its item, and re-admission restarts the chunk walk at zero
// (full recomputation, same policy as monolithic preemption).
func TestChunkedPreemptionRestartsPrefill(t *testing.T) {
	s := sched(t, 6, 8,
		[2]int{4, 8}, // 2 full blocks
		[2]int{4, 8}, // 2 full blocks
	)
	if err := s.SetChunk(2); err != nil {
		t.Fatal(err)
	}
	// Admit a chunked arrival into the remaining 2 blocks (prompt 4 needs
	// 1 block + 1 headroom); it starts prefilling.
	admitted, _ := s.Admit([]Item{{Ref: 9, PromptLen: 4, OutputLen: 10}})
	if len(admitted) != 1 || !admitted[0].Prefilling() || admitted[0].Prefilled != 0 {
		t.Fatalf("admitted %+v, want a prefilling sequence at position 0", admitted)
	}
	s.AdvancePrefills() // position 2 of 4
	// Decode pressure: both full sequences extend; pool is exhausted, so
	// the youngest (the prefilling arrival) is evicted.
	evicted, err := s.ExtendAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Item.Ref != 9 {
		t.Fatalf("evicted %+v, want the prefilling arrival", evicted)
	}
	checkBooks(t, s)
	// Free room and re-admit: the chunk walk restarts at zero.
	if _, err := s.FinishStepN(map[int]int{0: 100}); err != nil { // retire seq 0
		t.Fatal(err)
	}
	readmitted, _ := s.Admit(nil)
	if len(readmitted) != 1 || readmitted[0].Item.Ref != 9 || readmitted[0].Prefilled != 0 {
		t.Fatalf("readmitted %+v, want ref 9 restarting at position 0", readmitted)
	}
}

// TestFinishStepN: variable-token retirement for speculative rounds.
func TestFinishStepN(t *testing.T) {
	s, err := NewScheduler(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Admit([]Item{
		{Ref: 0, PromptLen: 2, OutputLen: 5},
		{Ref: 1, PromptLen: 2, OutputLen: 5},
		{Ref: 2, PromptLen: 2, OutputLen: 5},
	})
	if _, err := s.FinishStepN(nil); err == nil {
		t.Fatal("nil counts accepted")
	}
	// Seq 0 emits 3 (spec round), seq 1 emits 5 (retires exactly), seq 2
	// absent from the map (no progress this round).
	finished, err := s.FinishStepN(map[int]int{0: 3, 1: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(finished) != 1 || finished[0].ID != 1 {
		t.Fatalf("finished %+v, want exactly seq 1", finished)
	}
	run := s.Running()
	if len(run) != 2 || run[0].Remaining != 2 || run[1].Remaining != 5 {
		t.Fatalf("running %+v, want seq 0 owing 2 and seq 2 owing 5", run)
	}
	if run[0].Context != 5 || run[1].Context != 2 {
		t.Fatalf("contexts %d,%d want 5,2", run[0].Context, run[1].Context)
	}
	// Over-emission past the budget still retires cleanly.
	finished, err = s.FinishStepN(map[int]int{0: 99, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(finished) != 1 || finished[0].ID != 0 {
		t.Fatalf("finished %+v, want seq 0", finished)
	}
}

// TestTryExtend: non-preempting single-slot reservation for the spec
// allowance top-up.
func TestTryExtend(t *testing.T) {
	s := sched(t, 4, 8,
		[2]int{4, 8}, // 2 full blocks
		[2]int{4, 7}, // 2 blocks, one slot spare
	)
	if s.Pool().FreeBlocks() != 0 {
		t.Fatalf("setup: want a full pool, %d free", s.Pool().FreeBlocks())
	}
	// Seq 1 has a spare slot in its last block: extension fits in place.
	if !s.TryExtend(1) {
		t.Fatal("in-block extension refused")
	}
	// Seq 0's blocks are full and the pool has none free: no preemption,
	// just a refusal.
	if s.TryExtend(0) {
		t.Fatal("TryExtend succeeded with an exhausted pool")
	}
	if s.RunningLen() != 2 || len(s.requeued) != 0 {
		t.Fatal("TryExtend preempted — it must never evict")
	}
	if s.TryExtend(77) {
		t.Fatal("TryExtend succeeded for an unknown sequence")
	}
	// Unconstrained scheduler always has room.
	free, err := NewScheduler(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	free.Admit([]Item{{Ref: 0, PromptLen: 1, OutputLen: 1}})
	if !free.TryExtend(0) {
		t.Fatal("unconstrained TryExtend refused")
	}
}

// TestSetChunkValidation: negative chunks are rejected, zero restores
// monolithic admission.
func TestSetChunkValidation(t *testing.T) {
	s, err := NewScheduler(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetChunk(-1); err == nil {
		t.Fatal("negative chunk accepted")
	}
	if err := s.SetChunk(4); err != nil || s.Chunk() != 4 {
		t.Fatalf("chunk not set: %v", err)
	}
	admitted, _ := s.Admit([]Item{{Ref: 0, PromptLen: 8, OutputLen: 1}})
	if !admitted[0].Prefilling() {
		t.Fatal("chunked admission not prefilling")
	}
	if err := s.SetChunk(0); err != nil {
		t.Fatal(err)
	}
	admitted, _ = s.Admit([]Item{{Ref: 1, PromptLen: 8, OutputLen: 1}})
	if admitted[0].Prefilling() {
		t.Fatal("monolithic admission left prefilling")
	}
	prefilling := 0
	for _, seq := range s.Running() {
		if seq.Prefilling() {
			prefilling++
		}
	}
	if prefilling != 1 {
		t.Fatalf("prefilling count %d, want 1", prefilling)
	}
	if got := len(s.Ready()); got != 1 {
		t.Fatalf("ready count %d, want 1", got)
	}
}
