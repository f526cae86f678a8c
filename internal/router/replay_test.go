package router

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/serve"
	"github.com/lia-sim/lia/internal/units"
)

// refCosts builds the serve.StepCosts that price rounds exactly as a
// speed-1 replay machine (SPRA100, no TP) does — the differential test
// hands these to gateway.Replay so both sides walk the same clock.
func refCosts() *serve.StepCosts {
	return &serve.StepCosts{
		Prefill: func(b, maxIn int) (units.Seconds, error) {
			return units.Seconds(float64(b*maxIn) * serve.RoundPrefillTokenCost), nil
		},
		Decode: func(b, meanCtx int) (units.Seconds, error) {
			return units.Seconds(float64(b)*serve.RoundDecodeSeqCost + float64(meanCtx)*serve.RoundDecodeCtxCost), nil
		},
	}
}

// burstTrace builds a deterministic arrival stream: n requests with
// jittered inter-arrival gaps, varied lengths, and (when withCancels)
// scattered client abandonments and deadlines.
func burstTrace(n int, seed int64, withCancels bool) []gateway.ReplayRequest {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]gateway.ReplayRequest, 0, n)
	var clock units.Seconds
	for i := 0; i < n; i++ {
		clock += units.Seconds(rng.Float64() * 0.004)
		r := gateway.ReplayRequest{
			PromptLen: 4 + rng.Intn(24),
			OutputLen: 1 + rng.Intn(16),
			Arrival:   clock,
		}
		if withCancels {
			if i%9 == 3 {
				r.CancelAt = clock + units.Seconds(0.003)
			}
			if i%13 == 7 {
				r.Deadline = clock + units.Seconds(0.02)
			}
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// phasedTrace is the combined differential row's stream: a saturating
// burst without abandonments (the bounded queue sheds, the tight pool
// preempts), then — once that backlog has drained — a paced stream with
// cancels and deadlines the queue never fills under.
func phasedTrace() []gateway.ReplayRequest {
	reqs := burstTrace(40, 11, false)
	rng := rand.New(rand.NewSource(12))
	clock := units.Seconds(2)
	for i := 0; i < 40; i++ {
		clock += units.Seconds(0.02 + rng.Float64()*0.02)
		r := gateway.ReplayRequest{PromptLen: 4 + rng.Intn(24), OutputLen: 1 + rng.Intn(16), Arrival: clock}
		switch i % 4 {
		case 0:
			r.CancelAt = clock + units.Seconds(0.010)
		case 1:
			r.Deadline = clock + units.Seconds(0.040)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TestFleetReplaySingleReplicaMatchesBareGateway is the router's
// correctness differential: a 1-replica fleet must make exactly the
// scheduling decisions of the bare gateway replay — bit-identical event
// streams (same admissions, same preemption victims, same completion
// order), same counts, same per-request outcomes and virtual times. The
// fleet machinery (placement, global event ordering, per-machine
// clocks) must be observationally free when there is nothing to place
// across.
func TestFleetReplaySingleReplicaMatchesBareGateway(t *testing.T) {
	cfg := llm.TinyConfig()
	cases := []struct {
		name        string
		kvTokens    int
		maxBatch    int
		queueDepth  int
		withCancels bool
		blockTokens int
		phased      bool // serve phasedTrace instead of the burst
	}{
		// Roomy pool, bounded queue: exercises shed-at-ingest parity.
		{"bounded-queue", 1024, 4, 6, false, 16, false},
		// Unbounded queue with abandonments: exercises the reap pass
		// (waiting cancels, mid-flight removes → EventRemove parity).
		{"cancels", 1024, 4, 0, true, 16, false},
		// Tight pool: exercises preemption parity (EventPreempt victims
		// and re-admission order must match exactly).
		{"kv-pressure", 96, 6, 0, false, 16, false},
		// All three in one replay, on 4-token blocks so decode growth
		// really preempts (see phasedTrace for why the sheds and the
		// cancels sit in different phases of it).
		{"cancels+kv-pressure+bounded-queue", 64, 4, 6, true, 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs := burstTrace(80, 11, tc.withCancels)
			if tc.phased {
				reqs = phasedTrace()
			}
			bare, err := gateway.Replay(gateway.ReplayConfig{
				MaxBatch:      tc.maxBatch,
				Model:         cfg,
				KVBudget:      cfg.KVBytes(1, tc.kvTokens),
				KVBlockTokens: tc.blockTokens,
				Costs:         refCosts(),
				QueueDepth:    tc.queueDepth,
			}, reqs)
			if err != nil {
				t.Fatalf("gateway.Replay: %v", err)
			}
			fleet, err := FleetReplay(FleetConfig{
				Model: cfg,
				Replicas: []ReplayReplica{{
					Name:          "solo",
					System:        hw.SPRA100,
					MaxBatch:      tc.maxBatch,
					QueueDepth:    tc.queueDepth,
					KVTokens:      tc.kvTokens,
					KVBlockTokens: tc.blockTokens,
				}},
			}, reqs)
			if err != nil {
				t.Fatalf("FleetReplay: %v", err)
			}

			if !reflect.DeepEqual(bare.Events, fleet.Events) {
				t.Fatalf("event streams diverge: bare %d events, fleet %d events",
					len(bare.Events), len(fleet.Events))
			}
			if bare.Completed != fleet.Completed || bare.Shed != fleet.Shed ||
				bare.Canceled != fleet.Canceled || bare.Preemptions != fleet.Preemptions {
				t.Errorf("counts diverge: bare C/S/X/P = %d/%d/%d/%d, fleet %d/%d/%d/%d",
					bare.Completed, bare.Shed, bare.Canceled, bare.Preemptions,
					fleet.Completed, fleet.Shed, fleet.Canceled, fleet.Preemptions)
			}
			if bare.Makespan != fleet.Makespan {
				t.Errorf("makespan diverges: bare %v, fleet %v", bare.Makespan, fleet.Makespan)
			}
			for i := range reqs {
				b, f := bare.Requests[i], fleet.Requests[i]
				// Both stamp a shed at the arrival instant, matching the
				// live gateway's synchronous 429.
				if b.Outcome != f.Outcome || b.Emitted != f.Emitted || b.FirstToken != f.FirstToken {
					t.Errorf("request %d diverges: bare %+v, fleet %+v", i, b, f)
				}
				if b.Finish != f.Finish {
					t.Errorf("request %d finish diverges: bare %v, fleet %v", i, b.Finish, f.Finish)
				}
				// One machine stamps Admitted for both drivers (first
				// admission, kept across preemption).
				if b.Admitted != f.Admitted {
					t.Errorf("request %d admission diverges: bare %v, fleet %v", i, b.Admitted, f.Admitted)
				}
			}
			if fleet.Failovers != 0 {
				t.Errorf("1-replica fleet reported %d failovers", fleet.Failovers)
			}
			if tc.phased && (bare.Preemptions == 0 || bare.Shed == 0 || bare.Canceled == 0) {
				t.Errorf("combined row lost coverage: preempt/shed/cancel = %d/%d/%d",
					bare.Preemptions, bare.Shed, bare.Canceled)
			}
		})
	}
}

// TestFleetReplayScalingThroughput pins the scale-study headline: a
// homogeneous 4-replica fleet sustains at least 3x the throughput of a
// single replica on a saturating burst, under both placement policies.
func TestFleetReplayScalingThroughput(t *testing.T) {
	cfg := llm.TinyConfig()
	const nReq = 64
	reqs := make([]gateway.ReplayRequest, nReq)
	for i := range reqs {
		reqs[i] = gateway.ReplayRequest{PromptLen: 16, OutputLen: 16}
	}
	run := func(policy string, replicas int) FleetResult {
		specs := make([]ReplayReplica, replicas)
		for i := range specs {
			specs[i] = ReplayReplica{
				System:     hw.SPRA100,
				MaxBatch:   4,
				QueueDepth: nReq,
				KVTokens:   2048,
			}
		}
		res, err := FleetReplay(FleetConfig{Policy: policy, Seed: 3, Model: cfg, Replicas: specs}, reqs)
		if err != nil {
			t.Fatalf("FleetReplay(%s, %d replicas): %v", policy, replicas, err)
		}
		if res.Completed != nReq {
			t.Fatalf("%s/%d completed %d of %d (shed %d, canceled %d)",
				policy, replicas, res.Completed, nReq, res.Shed, res.Canceled)
		}
		return res
	}
	for _, policy := range []string{PolicyP2C, PolicyRoundRobin} {
		one := run(policy, 1)
		four := run(policy, 4)
		speedup := four.ThroughputRPS / one.ThroughputRPS
		t.Logf("%s: 1 replica %.1f rps, 4 replicas %.1f rps (%.2fx)",
			policy, one.ThroughputRPS, four.ThroughputRPS, speedup)
		if speedup < 3 {
			t.Errorf("%s: 4-replica speedup %.2fx, want ≥3x", policy, speedup)
		}
	}
}

// TestFleetReplayFailoverAccounting kills a replica mid-trace and
// respawns it later: the accounting identity Completed+Shed+Canceled ==
// len(requests) must hold exactly across the failover, every request
// must carry a resolved outcome, orphans must actually fail over, and
// the whole replay must be byte-deterministic. A malformed fault plan is
// an error.
func TestFleetReplayFailoverAccounting(t *testing.T) {
	cfg := llm.TinyConfig()
	reqs := burstTrace(48, 23, true)
	fc := FleetConfig{
		Policy: PolicyP2C,
		Seed:   9,
		Model:  cfg,
		Replicas: []ReplayReplica{
			{Name: "a", System: hw.SPRA100, MaxBatch: 4, QueueDepth: 16, KVTokens: 512,
				DownAt: reqs[20].Arrival, UpAt: reqs[40].Arrival},
			{Name: "b", System: hw.SPRA100, MaxBatch: 4, QueueDepth: 16, KVTokens: 512},
		},
	}
	res, err := FleetReplay(fc, reqs)
	if err != nil {
		t.Fatalf("FleetReplay: %v", err)
	}
	if got := res.Completed + res.Shed + res.Canceled; got != len(reqs) {
		t.Errorf("accounting identity broken: %d completed + %d shed + %d canceled = %d, want %d",
			res.Completed, res.Shed, res.Canceled, got, len(reqs))
	}
	for i, r := range res.Requests {
		if r.Outcome == "" {
			t.Errorf("request %d has no resolved outcome", i)
		}
	}
	if res.Failovers == 0 {
		t.Error("kill at mid-trace produced no failovers")
	}
	if res.Completed == 0 {
		t.Error("nothing completed across the failover")
	}
	// Every request that was not shed reached a machine at least once
	// (shed can happen at arrival without a placement when nothing is
	// placeable); failovers re-place, so the sum may exceed it.
	var placed int
	for _, s := range res.PerReplica {
		placed += s.Placed
	}
	if placed < len(reqs)-res.Shed {
		t.Errorf("per-replica placements sum to %d, want ≥%d", placed, len(reqs)-res.Shed)
	}
	if res.PerReplica["a"].Rounds == 0 || res.PerReplica["b"].Rounds == 0 {
		t.Errorf("both replicas should have run rounds: %+v", res.PerReplica)
	}

	again, err := FleetReplay(fc, reqs)
	if err != nil {
		t.Fatalf("second FleetReplay: %v", err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("fleet replay with faults is not deterministic across runs")
	}

	// A fault plan kills before it respawns, at non-negative times:
	// respawn without a kill, respawn at or before the kill, and negative
	// instants are refused.
	for _, plan := range [][2]units.Seconds{{0, 1}, {2, 2}, {3, 1}, {-1, 0}, {0, -1}} {
		bad := fc
		bad.Replicas = slices.Clone(fc.Replicas)
		bad.Replicas[0].DownAt, bad.Replicas[0].UpAt = plan[0], plan[1]
		if _, err := FleetReplay(bad, reqs); err == nil {
			t.Errorf("fault plan DownAt %v, UpAt %v accepted", plan[0], plan[1])
		}
	}
}

// TestFleetReplayHeterogeneousFleet routes one stream across an A100
// node, an H100 node, a CPU-only AMX node, and a 4-way tensor-parallel
// DGX node: the device-speed model must steer completions toward the
// fast replicas (P2C drains the fast queues and refills them) while the
// accounting identity still closes.
func TestFleetReplayHeterogeneousFleet(t *testing.T) {
	cfg := llm.TinyConfig()
	reqs := burstTrace(96, 31, false)
	cpuOnly := hw.System{Name: "SPR-CPU", CPU: hw.SPR}
	res, err := FleetReplay(FleetConfig{
		Policy: PolicyP2C,
		Seed:   5,
		Model:  cfg,
		Replicas: []ReplayReplica{
			{Name: "a100", System: hw.SPRA100, MaxBatch: 4, QueueDepth: 12, KVTokens: 512},
			{Name: "h100", System: hw.SPRH100, MaxBatch: 4, QueueDepth: 12, KVTokens: 512},
			{Name: "cpu", System: cpuOnly, MaxBatch: 4, QueueDepth: 12, KVTokens: 512},
			{Name: "tp4", System: hw.DGXA100, TPWays: 4, MaxBatch: 4, QueueDepth: 12, KVTokens: 512},
		},
	}, reqs)
	if err != nil {
		t.Fatalf("FleetReplay: %v", err)
	}
	if got := res.Completed + res.Shed + res.Canceled; got != len(reqs) {
		t.Errorf("accounting identity broken: %d, want %d", got, len(reqs))
	}
	for name, s := range res.PerReplica {
		if s.Placed == 0 {
			t.Errorf("replica %s was never placed on", name)
		}
	}
	if h, c := res.PerReplica["h100"].Completed, res.PerReplica["cpu"].Completed; h < c {
		t.Errorf("H100 completed %d < CPU-only %d; speed model should favour the fast node", h, c)
	}
	if len(res.TTFTs) == 0 {
		t.Fatal("no TTFT samples collected")
	}
	p50, p99 := Percentile(res.TTFTs, 50), Percentile(res.TTFTs, 99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("TTFT percentiles implausible: p50 %v, p99 %v", p50, p99)
	}
}

// replicaCosts is the one tensor-parallel model: a TP replica computes
// `ways`× faster and every round pays two core.TPAllReduceTime ring
// all-reduces per decoder layer on the batch's hidden states, over the
// system's peer link or NVLink3 when the system has none. Ways 0 and 1
// pay nothing. The slow link lifts the all-reduce above its latency
// floor, so the row pins which fabric is priced.
func TestReplicaCostsTPAllReduce(t *testing.T) {
	cfg := llm.TinyConfig()
	slow := hw.DGXA100
	slow.GPU.PeerLink = hw.LinkSpec{Name: "slow", BW: units.MBps / 10, Setup: units.Microsecond}
	for _, tc := range []struct {
		name string
		sys  hw.System
		ways int
		peer hw.LinkSpec // the fabric the all-reduces ride
	}{
		{"dgx-tp0", hw.DGXA100, 0, hw.NVLink3},
		{"dgx-tp1", hw.DGXA100, 1, hw.NVLink3},
		{"dgx-tp4", hw.DGXA100, 4, hw.NVLink3},
		{"slow-peer-tp2", slow, 2, slow.GPU.PeerLink},
		{"no-peer-tp2", hw.SPRA100, 2, hw.NVLink3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			speed := float64(tc.sys.GPU.PeakHalf) / float64(hw.A100.PeakHalf)
			if tc.ways >= 2 {
				speed *= float64(tc.ways)
			}
			if got := deviceSpeed(tc.sys, tc.ways); got != speed {
				t.Fatalf("deviceSpeed = %v, want %v", got, speed)
			}
			c := replicaCosts(ReplayReplica{System: tc.sys, TPWays: tc.ways}, cfg)
			for _, b := range []int{1, 3, 8} {
				var comm units.Seconds
				if tc.ways >= 2 {
					bytes := units.Bytes(b * cfg.DModel * cfg.BytesPerParam)
					comm = units.Seconds(2*cfg.Layers) * core.TPAllReduceTime(tc.ways, tc.peer, bytes)
				}
				prefill, err := c.Prefill(b, 24)
				if err != nil {
					t.Fatal(err)
				}
				if want := units.Seconds(float64(b*24)*serve.RoundPrefillTokenCost/speed) + comm; prefill != want {
					t.Errorf("b=%d: prefill %v, want %v", b, prefill, want)
				}
				decode, err := c.Decode(b, 40)
				if err != nil {
					t.Fatal(err)
				}
				if want := units.Seconds((float64(b)*serve.RoundDecodeSeqCost+40*serve.RoundDecodeCtxCost)/speed) + comm; decode != want {
					t.Errorf("b=%d: decode %v, want %v", b, decode, want)
				}
			}
		})
	}
}

// TestPercentile pins nearest-rank behaviour.
func TestPercentile(t *testing.T) {
	s := []units.Seconds{4, 1, 3, 2}
	if got := Percentile(s, 50); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := Percentile(s, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
}
