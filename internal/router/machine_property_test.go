package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/serve"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// machinePlan is one random serving plan: a request stream with cancels
// and deadlines mixed in, and the envelope it is served under.
type machinePlan struct {
	reqs                 []gateway.ReplayRequest
	maxBatch, queueDepth int
	kvTokens             int // 0 = unconstrained
	replicas             int
	downAt, upAt         units.Seconds // replica 0's fault plan (0 = none)
	prefillChunk         int           // the single-machine replay's chunk mode (0 = monolithic)
}

func randomMachinePlan(rng *rand.Rand) machinePlan {
	p := machinePlan{
		maxBatch:   1 + rng.Intn(6),
		queueDepth: []int{0, 2, 5, 12}[rng.Intn(4)],
		// 48 tokens hold the largest request (27+16) plus its headroom
		// block alone, so nothing is ever stuck; the small pools preempt.
		kvTokens: []int{0, 48, 64, 96, 256}[rng.Intn(5)],
		replicas: 1 + rng.Intn(3),
	}
	var clock units.Seconds
	for i, n := 0, 30+rng.Intn(50); i < n; i++ {
		clock += units.Seconds(rng.Float64() * 0.012)
		r := gateway.ReplayRequest{PromptLen: 4 + rng.Intn(24), OutputLen: 1 + rng.Intn(16), Arrival: clock}
		switch rng.Intn(5) {
		case 0:
			r.CancelAt = clock + units.Seconds(rng.Float64()*0.03)
		case 1:
			r.Deadline = clock + units.Seconds(0.01+rng.Float64()*0.2)
		}
		p.reqs = append(p.reqs, r)
	}
	if rng.Intn(2) == 0 {
		p.downAt = clock * units.Seconds(0.2+0.4*rng.Float64())
		if rng.Intn(2) == 0 {
			p.upAt = p.downAt + clock*units.Seconds(0.3*rng.Float64())
		}
	}
	p.prefillChunk = []int{0, 4, 16}[rng.Intn(3)]
	return p
}

// checkClosed asserts the accounting identity and that every request
// carries a resolved, internally consistent outcome.
func checkClosed(t *testing.T, reqs []gateway.ReplayRequest, completed, shed, canceled int, outcomes []gateway.ReplayOutcome) {
	t.Helper()
	if got := completed + shed + canceled; got != len(reqs) || len(outcomes) != len(reqs) {
		t.Fatalf("accounting: %d completed + %d shed + %d canceled = %d over %d outcomes, want %d",
			completed, shed, canceled, got, len(outcomes), len(reqs))
	}
	tally := map[string]int{}
	for i, o := range outcomes {
		tally[o.Outcome]++
		switch o.Outcome {
		case gateway.ReplayCompleted:
			if o.FirstToken <= 0 || o.Finish < o.FirstToken || o.Admitted < o.Arrival || o.Emitted != reqs[i].OutputLen {
				t.Fatalf("request %d completed with a broken record: %+v", i, o)
			}
		case gateway.ReplayShed, gateway.ReplayCanceled:
			if o.Finish < o.Arrival || o.Emitted >= reqs[i].OutputLen {
				t.Fatalf("request %d %s with a broken record: %+v", i, o.Outcome, o)
			}
		default:
			t.Fatalf("request %d left unresolved: %+v", i, o)
		}
	}
	if tally[gateway.ReplayCompleted] != completed || tally[gateway.ReplayShed] != shed || tally[gateway.ReplayCanceled] != canceled {
		t.Fatalf("counts %d/%d/%d disagree with the records %v", completed, shed, canceled, tally)
	}
}

// TestMachineInvariantsThroughEveryDriver serves random plans — cancels,
// deadlines, bounded queues, KV pressure, chunked prefill for the
// single-machine replay, and for the fleet a replica kill with or
// without respawn — through all three callers of serve.Drive. Each must
// close its accounting, resolve every request, leave every surviving
// pool fully free (Drive ends on the machines' leak check, so a leak is
// an error here), and repeat itself exactly.
func TestMachineInvariantsThroughEveryDriver(t *testing.T) {
	cfg := llm.TinyConfig()
	var preempted, shed, canceled, failovers int
	for seed := int64(1); seed <= 60; seed++ {
		p := randomMachinePlan(rand.New(rand.NewSource(seed)))
		var budget units.Bytes
		if p.kvTokens > 0 {
			budget = cfg.KVBytes(1, p.kvTokens)
		}
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			// Driver 1: the simulator has no abandonment or queue bound,
			// so every request must complete.
			simulate := func() serve.Metrics {
				sreqs := make([]serve.Request, len(p.reqs))
				for i, r := range p.reqs {
					sreqs[i] = serve.Request{Request: trace.Request{InputLen: r.PromptLen, OutputLen: r.OutputLen}, Arrival: r.Arrival}
				}
				m, err := serve.SimulateContinuous(serve.Config{
					Model: cfg, MaxBatch: p.maxBatch, KVBudget: budget, KVBlockTokens: 4, StepCosts: refCosts(),
				}, sreqs)
				if err != nil {
					t.Fatalf("SimulateContinuous: %v", err)
				}
				return m
			}
			m := simulate()
			if m.Completed != len(p.reqs) {
				t.Fatalf("SimulateContinuous completed %d of %d", m.Completed, len(p.reqs))
			}
			if again := simulate(); m != again {
				t.Fatalf("SimulateContinuous not repeatable:\n%+v\n%+v", m, again)
			}
			preempted += m.Preemptions

			// Driver 2: the single-replica replay, in the plan's prefill mode.
			replay := func() gateway.ReplayResult {
				res, err := gateway.Replay(gateway.ReplayConfig{
					MaxBatch: p.maxBatch, Model: cfg, KVBudget: budget, KVBlockTokens: 4,
					Costs: refCosts(), QueueDepth: p.queueDepth, PrefillChunk: p.prefillChunk,
				}, p.reqs)
				if err != nil {
					t.Fatalf("gateway.Replay: %v", err)
				}
				return res
			}
			bare := replay()
			checkClosed(t, p.reqs, bare.Completed, bare.Shed, bare.Canceled, bare.Requests)
			if !reflect.DeepEqual(bare, replay()) {
				t.Fatal("gateway.Replay not repeatable")
			}
			shed += bare.Shed
			canceled += bare.Canceled

			// Driver 3: the fleet, replica 0 carrying the fault plan.
			specs := make([]ReplayReplica, p.replicas)
			for i := range specs {
				specs[i] = ReplayReplica{
					System: hw.SPRA100, MaxBatch: p.maxBatch, QueueDepth: p.queueDepth,
					KVTokens: p.kvTokens, KVBlockTokens: 4,
				}
			}
			specs[0].DownAt, specs[0].UpAt = p.downAt, p.upAt
			fleetRun := func() FleetResult {
				res, err := FleetReplay(FleetConfig{Seed: seed, Model: cfg, Replicas: specs}, p.reqs)
				if err != nil {
					t.Fatalf("FleetReplay: %v", err)
				}
				return res
			}
			fleet := fleetRun()
			checkClosed(t, p.reqs, fleet.Completed, fleet.Shed, fleet.Canceled, fleet.Requests)
			if !reflect.DeepEqual(fleet, fleetRun()) {
				t.Fatal("FleetReplay not repeatable")
			}
			failovers += fleet.Failovers
		})
	}
	if preempted == 0 || shed == 0 || canceled == 0 || failovers == 0 {
		t.Errorf("plans lost coverage: %d preemptions, %d sheds, %d cancels, %d failovers",
			preempted, shed, canceled, failovers)
	}
}
