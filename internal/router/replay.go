package router

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/serve"
	"github.com/lia-sim/lia/internal/units"
)

// ReplayReplica declares one virtual replica of a replayed fleet.
type ReplayReplica struct {
	// Name identifies the replica.
	Name string
	// System prices the replica's compute: its GPU's PeakHalf (or, for a
	// CPU-only AMX node, the CPU's PeakMatrix) relative to the A100
	// reference scales every round cost.
	System hw.System
	// TPWays, when ≥2, models the replica as a tensor-parallel node:
	// compute scales by the shard count and every round pays the two
	// analytic ring all-reduces per decoder layer (core.TPAllReduceTime
	// over the system's peer link, NVLink3 when unset).
	TPWays int
	// MaxBatch and QueueDepth bound the replica's batcher (queue 0 =
	// unbounded).
	MaxBatch   int
	QueueDepth int
	// KVTokens bounds the replica's paged KV pool (0 = unconstrained).
	KVTokens int
	// KVBlockTokens is the pool's block granularity (default 16).
	KVBlockTokens int
	// DownAt, when positive, kills the replica at that virtual time:
	// running and queued work fails over through placement. UpAt, when
	// positive, respawns it with a fresh scheduler; it must follow a
	// DownAt.
	DownAt, UpAt units.Seconds
}

// FleetConfig parameterizes a fleet replay.
type FleetConfig struct {
	// Policy is the placement policy (PolicyP2C default, PolicyRoundRobin).
	Policy string
	// Seed drives the P2C sampler.
	Seed int64
	// Model is the served architecture (default llm.TinyConfig()); it
	// sizes KV pools and the TP comm payload.
	Model model.Config
	// Replicas is the fleet.
	Replicas []ReplayReplica
}

// ReplicaReplayStats is one replica's share of a replayed fleet's work.
type ReplicaReplayStats struct {
	// Placed counts requests routed to the replica (including failovers
	// onto it).
	Placed int
	// Completed counts requests it finished.
	Completed int
	// Rounds counts scheduling rounds it ran.
	Rounds int
}

// FleetResult is a fleet replay's outcome: the shared ledger's record —
// counts, Makespan (the latest virtual completion across the fleet),
// per-request outcomes indexed like the input, and the fleet-wide ordered
// event stream, which for a 1-replica fleet is directly comparable with
// gateway.Replay's (the differential the router's correctness test pins)
// — plus what only a fleet has. The accounting identity
// Completed+Shed+Canceled == len(Requests) holds for every finished
// replay, across any number of failovers.
type FleetResult struct {
	gateway.ReplayResult
	// Failovers counts requests re-placed off a killed replica.
	Failovers int
	// ThroughputRPS is Completed / Makespan.
	ThroughputRPS float64
	// TTFTs collects completed requests' arrival→first-token latencies,
	// unsorted (use Percentile).
	TTFTs []units.Seconds
	// PerReplica maps replica name → its share of the work.
	PerReplica map[string]ReplicaReplayStats
}

// Percentile returns the p-th percentile (0 < p ≤ 100) of a latency
// sample by nearest-rank (serve.Percentile), 0 for an empty sample.
func Percentile(sample []units.Seconds, p float64) units.Seconds {
	s := slices.Clone(sample)
	slices.Sort(s)
	return serve.Percentile(s, p/100)
}

// deviceSpeed is a replica's compute factor relative to the A100
// reference: H100 nodes run ≈2.4× faster, CPU-only AMX nodes ≈3.5×
// slower, and a TP node scales by its shard count (the per-round
// all-reduce tax is charged separately).
func deviceSpeed(sys hw.System, tpWays int) float64 {
	ref := float64(hw.A100.PeakHalf)
	var f float64
	if sys.GPUCount > 0 {
		f = float64(sys.GPU.PeakHalf) / ref
	} else {
		f = float64(sys.CPU.PeakMatrix) / ref
	}
	if f <= 0 {
		f = 1
	}
	if tpWays >= 2 {
		f *= float64(tpWays)
	}
	return f
}

// replicaCosts prices a replica's rounds: the reference closed forms
// divided by its device speed, plus — for a tensor-parallel node — two
// ring all-reduces per decoder layer over the batch's hidden states.
func replicaCosts(spec ReplayReplica, cfg model.Config) *serve.StepCosts {
	speed := deviceSpeed(spec.System, spec.TPWays)
	peer := spec.System.GPU.PeerLink
	if peer.BW == 0 {
		peer = hw.NVLink3
	}
	tpComm := func(batch int) units.Seconds {
		if spec.TPWays < 2 {
			return 0
		}
		bytes := units.Bytes(batch * cfg.DModel * cfg.BytesPerParam)
		return units.Seconds(2*cfg.Layers) * core.TPAllReduceTime(spec.TPWays, peer, bytes)
	}
	return &serve.StepCosts{
		Prefill: func(b, maxIn int) (units.Seconds, error) {
			return units.Seconds(float64(b*maxIn)*serve.RoundPrefillTokenCost/speed) + tpComm(b), nil
		},
		Decode: func(b, meanCtx int) (units.Seconds, error) {
			return units.Seconds((float64(b)*serve.RoundDecodeSeqCost+float64(meanCtx)*serve.RoundDecodeCtxCost)/speed) + tpComm(b), nil
		},
	}
}

// FleetReplay prices a request stream through a virtual fleet: N
// serve.Machines — each with its own clock, scheduler, KV pool, and
// device-scaled costs — recording into one ledger, behind the same
// placement policies the live router runs. serve.Drive merges the
// replicas' kills and respawns, the arrivals and the machine rounds into
// global time order; this function owns only what a fleet adds — the
// replicas, their fault plans and placement — so results are a pure
// function of (config, requests): byte-identical across runs, the
// property the scale study and the failover accounting tests rely on.
func FleetReplay(cfg FleetConfig, reqs []gateway.ReplayRequest) (FleetResult, error) {
	if len(cfg.Replicas) == 0 {
		return FleetResult{}, fmt.Errorf("router: replay fleet needs at least one replica")
	}
	switch cfg.Policy {
	case "", PolicyP2C, PolicyRoundRobin:
	default:
		return FleetResult{}, fmt.Errorf("router: unknown placement policy %q", cfg.Policy)
	}
	if cfg.Model.DModel == 0 {
		cfg.Model = llm.TinyConfig()
	}
	n := len(cfg.Replicas)
	specs, machines, placed := make([]ReplayReplica, n), make([]*serve.Machine, n), make([]int, n)
	var faults []serve.Fault
	seen := map[string]bool{}
	for i, spec := range cfg.Replicas {
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("replica-%d", i)
		}
		if seen[spec.Name] {
			return FleetResult{}, fmt.Errorf("router: duplicate replica name %q", spec.Name)
		}
		seen[spec.Name] = true
		if spec.DownAt < 0 || spec.UpAt < 0 || spec.UpAt > 0 && (spec.DownAt == 0 || spec.UpAt <= spec.DownAt) {
			return FleetResult{}, fmt.Errorf("router: replica %q: fault plan DownAt %v, UpAt %v: times must be ≥0 and a respawn must follow a kill",
				spec.Name, spec.DownAt, spec.UpAt)
		}
		if spec.DownAt > 0 {
			faults = append(faults, serve.Fault{At: spec.DownAt, Machine: i, Down: true})
		}
		if spec.UpAt > 0 {
			faults = append(faults, serve.Fault{At: spec.UpAt, Machine: i})
		}
		if spec.System.CPU.Cores == 0 {
			spec.System = hw.SPRA100
		}
		var budget units.Bytes
		if spec.KVTokens > 0 {
			budget = cfg.Model.KVBytes(1, spec.KVTokens)
		}
		m, err := serve.NewMachine(serve.ReplayConfig{
			MaxBatch:      spec.MaxBatch,
			Model:         cfg.Model,
			KVBudget:      budget,
			KVBlockTokens: spec.KVBlockTokens,
			Costs:         replicaCosts(spec, cfg.Model),
			QueueDepth:    spec.QueueDepth,
		})
		if err != nil {
			return FleetResult{}, fmt.Errorf("router: replica %q: %w", spec.Name, err)
		}
		specs[i], machines[i] = spec, m
	}
	var (
		rng = rand.New(rand.NewSource(cfg.Seed))
		rr  uint64
	)
	// place picks a replica for one request: policy pick first, then
	// least-pressure spill over the remaining placeable machines (the
	// replay's analogue of Submit's retry loop — a full machine refuses
	// and the next-best is tried). No machine can hold it → -1, shed.
	place := func(int) int {
		ls := make([]Load, n)
		for i, m := range machines {
			queued, running, free, total := m.Load()
			ls[i] = Load{Name: specs[i].Name, QueueLen: queued, QueueCap: specs[i].QueueDepth, Running: running,
				KVFreeBlocks: free, KVTotalBlocks: total, Placeable: m.Up() && !m.Full()}
		}
		var pick int
		if cfg.Policy == PolicyRoundRobin {
			pick = PickRoundRobin(ls, rr)
			rr++
		} else {
			pick = PickP2C(ls, rng.Intn)
		}
		if pick < 0 {
			pick = PickLeastPressure(ls)
		}
		if pick >= 0 {
			placed[pick]++
		}
		return pick
	}
	res, failovers, err := serve.Drive(reqs, machines, faults, place)
	if err != nil {
		return FleetResult{}, fmt.Errorf("router: replay: %w", err)
	}
	out := FleetResult{ReplayResult: res, Failovers: failovers, PerReplica: map[string]ReplicaReplayStats{}}
	for i, m := range machines {
		out.PerReplica[specs[i].Name] = ReplicaReplayStats{Placed: placed[i], Completed: m.Completed, Rounds: m.Rounds}
	}
	// TTFT samples in completion order, as the event stream recorded it.
	for _, e := range res.Events {
		if r := res.Requests[e.Ref]; e.Kind == batchpolicy.EventComplete && r.FirstToken > 0 {
			out.TTFTs = append(out.TTFTs, r.FirstToken-r.Arrival)
		}
	}
	if out.Makespan > 0 {
		out.ThroughputRPS = float64(out.Completed) / float64(out.Makespan)
	}
	return out, nil
}
