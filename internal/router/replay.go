package router

import (
	"fmt"
	"math"
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
	// positive, respawns it with a fresh scheduler.
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

// replayReplica is one fleet member: a serve.Machine plus the fault plan
// and placement bookkeeping only a fleet has.
type replayReplica struct {
	*serve.Machine
	spec              ReplayReplica
	killed, respawned bool // fault transitions already processed
	placed            int
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

// load snapshots the replica for a placement decision.
func (r *replayReplica) load() Load {
	queued, running, free, total := r.Load()
	return Load{
		Name:          r.spec.Name,
		QueueLen:      queued,
		QueueCap:      r.spec.QueueDepth,
		Running:       running,
		KVFreeBlocks:  free,
		KVTotalBlocks: total,
		Placeable:     r.Up() && !r.Full(),
	}
}

// FleetReplay prices a request stream through a virtual fleet: N
// serve.Machines — each with its own clock, scheduler, KV pool, and
// device-scaled costs — recording into one ledger, behind the same
// placement policies the live router runs. This driver owns only what a
// fleet adds: placement, kill/respawn, and the merge of fault
// transitions, arrivals and machine rounds into global time order, so
// results are a pure function of (config, requests): byte-identical
// across runs, the property the scale study and the failover accounting
// tests rely on.
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
	led, err := serve.NewLedger(reqs)
	if err != nil {
		return FleetResult{}, fmt.Errorf("router: replay: %w", err)
	}

	fleet := make([]*replayReplica, len(cfg.Replicas))
	seen := map[string]bool{}
	for i, spec := range cfg.Replicas {
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("replica-%d", i)
		}
		if seen[spec.Name] {
			return FleetResult{}, fmt.Errorf("router: duplicate replica name %q", spec.Name)
		}
		seen[spec.Name] = true
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
		}, led)
		if err != nil {
			return FleetResult{}, fmt.Errorf("router: replica %q: %w", spec.Name, err)
		}
		fleet[i] = &replayReplica{Machine: m, spec: spec}
	}

	var (
		rng       = rand.New(rand.NewSource(cfg.Seed))
		rr        uint64
		failovers int
	)
	// place routes one request at virtual time t: policy pick first,
	// then least-pressure spill over the remaining placeable machines
	// (the replay's analogue of Submit's retry loop — a full machine
	// refuses and the next-best is tried). No machine can hold it → shed.
	place := func(req int, t units.Seconds) {
		ls := make([]Load, len(fleet))
		for i, r := range fleet {
			ls[i] = r.load()
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
		if pick < 0 {
			led.Refuse(req, t)
			return
		}
		r := fleet[pick]
		if !r.Busy() && r.Clock < t {
			r.Clock = t // idle machine wakes at the placement instant
		}
		r.Enqueue(req)
		r.placed++
	}

	const never = units.Seconds(math.MaxFloat64)
	next := 0
	for {
		// Next fault transition, arrival, and machine round, in global
		// time order (faults before arrivals before rounds on ties).
		tFault, faultIdx, faultKill := never, -1, false
		for i, r := range fleet {
			if d := r.spec.DownAt; d > 0 && !r.killed && (tFault > d) {
				tFault, faultIdx, faultKill = d, i, true
			}
			if u := r.spec.UpAt; u > 0 && r.killed && !r.respawned && tFault > u {
				tFault, faultIdx, faultKill = u, i, false
			}
		}
		tArr := never
		if next < len(reqs) {
			tArr = reqs[next].Arrival
		}
		tRound, roundIdx := never, -1
		for i, r := range fleet {
			if r.Busy() && r.Clock < tRound {
				tRound, roundIdx = r.Clock, i
			}
		}
		switch {
		case faultIdx >= 0 && tFault <= tArr && tFault <= tRound:
			r := fleet[faultIdx]
			if faultKill {
				// Fail over: every waiting, requeued, and running request
				// re-places across the survivors at the kill instant.
				r.killed = true
				r.Clock = max(r.Clock, tFault)
				for _, req := range r.Orphans() {
					failovers++
					place(req, tFault)
				}
			} else {
				r.respawned = true
				r.Clock = tFault
				if err := r.Restart(); err != nil {
					return FleetResult{}, err
				}
			}
		case next < len(reqs) && tArr <= tRound:
			if led.Expired(next, tArr) {
				led.Cancel(next, tArr, 0)
			} else {
				place(next, tArr)
			}
			next++
		case roundIdx >= 0:
			r := fleet[roundIdx]
			err := r.Reap()
			if err == nil && r.Busy() { // the reap may have emptied it
				var progressed bool
				if progressed, err = r.Round(); err == nil && !progressed {
					r.ShedStuck()
				}
			}
			if err != nil {
				return FleetResult{}, fmt.Errorf("router: replay round on %q: %w", r.spec.Name, err)
			}
		default:
			return fleetResult(led, fleet, failovers)
		}
	}
}

// fleetResult closes a finished replay: the leak invariant on every live
// machine, then the ledger folded into the fleet's view of it.
func fleetResult(led *serve.Ledger, fleet []*replayReplica, failovers int) (FleetResult, error) {
	out := FleetResult{ReplayResult: led.ReplayResult, Failovers: failovers, PerReplica: map[string]ReplicaReplayStats{}}
	for _, r := range fleet {
		if err := r.Drained(); err != nil {
			return FleetResult{}, fmt.Errorf("router: replica %q: %w", r.spec.Name, err)
		}
		out.PerReplica[r.spec.Name] = ReplicaReplayStats{Placed: r.placed, Completed: r.Completed, Rounds: r.Rounds}
	}
	// TTFT samples in completion order, as the event stream recorded it.
	for _, e := range led.Events {
		if r := led.Requests[e.Ref]; e.Kind == batchpolicy.EventComplete && r.FirstToken > 0 {
			out.TTFTs = append(out.TTFTs, r.FirstToken-r.Arrival)
		}
	}
	if out.Makespan > 0 {
		out.ThroughputRPS = float64(out.Completed) / float64(out.Makespan)
	}
	return out, nil
}
