package llm

import (
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/hw"
)

// The tentpole contract for tensor parallelism: sharding is a pure
// re-layout — tokens are bit-identical to the unsharded executor under
// every offloading policy, for both model families, at every legal
// shard count.
func TestTPBitIdenticalToUnsharded(t *testing.T) {
	cases := []struct {
		name string
		m    *Model
		ways []int
	}{
		{"tiny-opt", tinyModel(t), []int{2, 4}},
		{"tiny-llama", tinyLlama(t), []int{2}},
	}
	prompt := []int{3, 14, 15, 92}
	for _, tc := range cases {
		for _, ways := range tc.ways {
			for _, p := range []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU} {
				ref, err := NewExecutor(tc.m, p).Generate(prompt, 12)
				if err != nil {
					t.Fatal(err)
				}
				e := NewExecutor(tc.m, p)
				if err := e.EnableTP(ways, hw.NVLink3); err != nil {
					t.Fatalf("%s ways=%d: %v", tc.name, ways, err)
				}
				if !e.TP() || e.TPWays() != ways {
					t.Fatal("TP mode not reported")
				}
				got, err := e.Generate(prompt, 12)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s ways=%d policy %s: TP tokens diverged at %d: %v vs %v",
							tc.name, ways, p, i, got, ref)
					}
				}
			}
		}
	}
}

// TP composes with the fused batch-decode path (fusedLayer routes its
// parameter GEMMs through linear, which dispatches to the sharded
// kernels): batch tokens stay bit-identical to per-sequence generation.
func TestTPBitIdenticalOnFusedBatch(t *testing.T) {
	m := tinyModel(t)
	prompts := [][]int{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	ref := make([][]int, len(prompts))
	for i, p := range prompts {
		out, err := NewExecutor(m, core.PartialCPU).Generate(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = out
	}
	e := NewExecutor(m, core.PartialCPU)
	if err := e.EnableTP(2, hw.NVLink3); err != nil {
		t.Fatal(err)
	}
	got, err := e.GenerateBatchFused(prompts, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		for j := range ref[i] {
			if got[i][j] != ref[i][j] {
				t.Fatalf("fused TP batch diverged on seq %d: %v vs %v", i, got[i], ref[i])
			}
		}
	}
}

// The virtual comm clock charges exactly two ring all-reduces per
// decoder layer per forward pass (after the out-projection and FC2 —
// the analytic MultiGPU baseline's schedule). On the tiny model every
// all-reduce lands on the calibrated latency floor, so the ledger is
// exactly AllReduces × floor.
func TestTPCommLedger(t *testing.T) {
	m := tinyModel(t)
	e := NewExecutor(m, core.FullGPU)
	if err := e.EnableTP(2, hw.NVLink3); err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3}
	const steps = 6
	if _, err := e.Generate(prompt, steps); err != nil {
		t.Fatal(err)
	}
	st := e.TPStats()
	// One prefill pass + (steps-1) decode passes, 2 all-reduces per layer
	// per pass.
	passes := int64(1 + steps - 1)
	want := 2 * int64(m.Cfg.Layers) * passes
	if st.AllReduces != want {
		t.Fatalf("all-reduces = %d, want %d", st.AllReduces, want)
	}
	const floor = 600e-6 // core's tpAllReduceFloor
	if got, want := float64(st.Comm), float64(st.AllReduces)*floor; got != want {
		t.Errorf("comm = %v, want %d × %v = %v (tiny hidden states sit on the latency floor)",
			got, st.AllReduces, floor, want)
	}
	if st.Ways != 2 {
		t.Errorf("ways = %d, want 2", st.Ways)
	}
}

func TestTPValidation(t *testing.T) {
	m := tinyModel(t)
	if err := NewExecutor(m, core.FullGPU).EnableTP(1, hw.NVLink3); err == nil {
		t.Error("ways=1 must be rejected")
	}
	// tiny-llama has 2 KV heads: 4-way sharding cannot divide them.
	if err := NewExecutor(tinyLlama(t), core.FullGPU).EnableTP(4, hw.NVLink3); err == nil {
		t.Error("indivisible KV heads must be rejected")
	}
	e := NewExecutor(m, core.FullGPU)
	e.EnableINT8()
	if err := e.EnableTP(2, hw.NVLink3); err == nil {
		t.Error("TP over a compressed tier must be rejected")
	}
	// Enabling a compressed tier turns TP back off.
	e2 := NewExecutor(m, core.FullGPU)
	if err := e2.EnableTP(2, hw.NVLink3); err != nil {
		t.Fatal(err)
	}
	e2.EnableSparse(0.5)
	if e2.TP() {
		t.Error("EnableSparse must clear TP")
	}
	e3 := NewExecutor(m, core.FullGPU)
	if err := e3.EnableTP(2, hw.NVLink3); err != nil {
		t.Fatal(err)
	}
	e3.EnableINT8()
	if e3.TP() {
		t.Error("EnableINT8 must clear TP")
	}
}

// Forks share the TP shard caches and the comm ledger, like the dense
// tier's packed-weight caches: concurrent batch generation must not
// re-shard or split the ledger.
func TestTPForkSharesState(t *testing.T) {
	m := tinyModel(t)
	e := NewExecutor(m, core.FullGPU)
	if err := e.EnableTP(2, hw.NVLink3); err != nil {
		t.Fatal(err)
	}
	sub := e.fork()
	if sub.tier != e.tier {
		t.Fatal("fork must share the TP state")
	}
	if _, err := sub.Generate([]int{1, 2}, 4); err != nil {
		t.Fatal(err)
	}
	if st := e.TPStats(); st.AllReduces == 0 {
		t.Error("fork all-reduces not aggregated into the family ledger")
	}
	prompts := [][]int{{1, 2}, {3, 4}, {5, 6}}
	if _, err := e.GenerateBatch(prompts, 4); err != nil {
		t.Fatal(err)
	}
}
