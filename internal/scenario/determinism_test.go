package scenario

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/units"
)

// TestExperimentBytesDeterministic is the reproducibility contract: the
// same declaration and seed must yield byte-identical artifacts across
// two full runs — live legs, bootstrap, JSON rendering and all. This is
// what lets BENCH_scenario.json be committed and diffed. (Run under
// -race in CI, this doubles as the harness's concurrency shakedown.)
func TestExperimentBytesDeterministic(t *testing.T) {
	run := func() []byte {
		e := smokeExperiment()
		res, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		line := 0
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := range la {
			if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
				line = i
				break
			}
		}
		t.Fatalf("two runs of the same experiment differ at line %d:\nrun1: %s\nrun2: %s",
			line+1, la[line], lb[line])
	}
}

// TestDefaultMatchesCommittedArtifact pins the standing experiment to
// the committed BENCH_scenario.json byte for byte — the declaration
// `make bench-scenario` runs (Default(), seed 1). A change to
// serve.Machine, its driver or the lab that moves one trial fails here;
// regenerate the file with `make bench-scenario` only in a commit that
// says which trials moved and whether a verdict did.
func TestDefaultMatchesCommittedArtifact(t *testing.T) {
	res, err := Run(Default())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Default() at seed 1 no longer renders BENCH_scenario.json: %d bytes, committed %d (diff `go run ./cmd/lia-serve -scenario -seed 1` against the file)", len(got), len(want))
	}
}

// TestCellEventStreamDeterministic pins the layer below the artifact:
// one cell's virtual leg must produce a bit-identical scheduling event
// stream — same admissions, same preemption victims, same removals —
// across two replays, faults included.
func TestCellEventStreamDeterministic(t *testing.T) {
	e := smokeExperiment()
	cell := Cell{Scenario: e.Scenarios[1].withDefaults(), Fault: e.Faults[1]}
	replay := func() gateway.ReplayResult {
		stream, err := buildStream(cell, 42)
		if err != nil {
			t.Fatal(err)
		}
		costs, _, err := virtualCosts(cell)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]gateway.ReplayRequest, len(stream))
		for i, r := range stream {
			reqs[i] = r.ReplayRequest
		}
		modelCfg := llm.TinyConfig()
		kv := int(float64(cell.Scenario.KVTokens) * cell.Fault.KVScale)
		var budget units.Bytes
		if kv > 0 {
			budget = modelCfg.KVBytes(1, kv)
		}
		res, err := gateway.Replay(gateway.ReplayConfig{
			MaxBatch:      cell.Scenario.MaxBatch,
			Model:         modelCfg,
			KVBudget:      budget,
			KVBlockTokens: 4,
			Costs:         costs,
			QueueDepth:    cell.Fault.QueueDepth,
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := replay(), replay()
	if len(a.Events) == 0 {
		t.Fatal("cell produced no scheduling events")
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("event streams diverge between identical replays")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("replay results diverge between identical replays")
	}
}

// TestTrialSeedsDiffer: different trial indices must derive different
// seeds (and therefore different streams) — N trials are N samples, not
// N copies.
func TestTrialSeedsDiffer(t *testing.T) {
	s1 := deriveSeed("1", "lab", "scenario", "fault", "0")
	s2 := deriveSeed("1", "lab", "scenario", "fault", "1")
	if s1 == s2 {
		t.Fatal("trial seeds collide")
	}
	if s1 < 0 || s2 < 0 {
		t.Fatal("derived seeds must be non-negative for printability")
	}
	cell := Cell{Scenario: smokeExperiment().Scenarios[0].withDefaults(), Fault: FaultPlan{Name: "baseline"}}
	a, err := buildStream(cell, s1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildStream(cell, s2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical streams")
	}
}
