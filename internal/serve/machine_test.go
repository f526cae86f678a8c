package serve

import (
	"testing"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/llm"
)

// TestMachineDrainedSeesHeldBlocks gives Drive's closing invariant
// teeth: a machine that still holds a running sequence must fail
// drained, the same machine after its work retires must pass, and a
// deadline reaped mid-flight must hand its blocks back (EventRemove, a
// canceled outcome with the partial token count).
func TestMachineDrainedSeesHeldBlocks(t *testing.T) {
	cfg := llm.TinyConfig()
	led, err := newLedger([]ReplayRequest{
		{PromptLen: 6, OutputLen: 3},
		{PromptLen: 6, OutputLen: 40, Deadline: 0.030},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(ReplayConfig{
		MaxBatch: 2, Model: cfg, KVBudget: cfg.KVBytes(1, 64), KVBlockTokens: 4, Costs: fakeCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.led, m.waiting = led, []int{0, 1}
	if err := m.round(); err != nil || led.Shed != 0 {
		t.Fatalf("prefill round: shed=%d err=%v", led.Shed, err)
	}
	if m.drained() == nil {
		t.Fatal("drained passed with two sequences holding blocks")
	}
	for m.busy() {
		if err := m.reap(); err != nil {
			t.Fatal(err)
		}
		if !m.busy() {
			break
		}
		if err := m.round(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.drained(); err != nil {
		t.Fatalf("after completion and reap: %v", err)
	}
	if led.Completed != 1 || led.Canceled != 1 {
		t.Fatalf("completed/canceled = %d/%d, want 1/1", led.Completed, led.Canceled)
	}
	reaped := led.Requests[1]
	if reaped.Outcome != ReplayCanceled || reaped.Emitted <= 0 || reaped.Emitted >= 40 || reaped.Finish < 0.030 {
		t.Fatalf("reaped record: %+v", reaped)
	}
	last := led.Events[len(led.Events)-1]
	if last.Kind != batchpolicy.EventRemove || last.Ref != 1 {
		t.Fatalf("last event %+v, want the deadline's EventRemove", last)
	}
}
