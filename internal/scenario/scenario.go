// Package scenario is the statistical experiment harness: a declarative
// matrix of workload scenarios × fault plans, each cell run as N seeded
// trials, aggregated into SLO verdicts with bootstrap confidence
// intervals.
//
// Every trial has two legs. The virtual leg replays the cell's request
// stream through gateway.Replay — the batcher's own scheduling loop on
// a virtual clock with injected analytic step costs — where chaos
// (cancel storms, deadline storms, queue saturation, degraded or
// faulting CXL links, KV-pool pressure) is exact and every statistic is
// byte-for-byte reproducible from the seed. The live leg drives the
// real gateway over the tiny functional model with real concurrent
// clients and real mid-flight cancellations, and contributes the
// standing invariants: no goroutine leaks, exact outcome accounting
// (received == completed + canceled; submitted == completed + canceled
// + shed), and bit-identical tokens where the serving mode guarantees
// them. Splitting the legs is what squares "statistics from live
// chaos" with "deterministic artifact": wall-clock latencies under
// concurrency are not reproducible, scheduling decisions and virtual
// clocks are.
package scenario

import (
	"fmt"

	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// WorkloadKind selects the length/content distribution of a scenario's
// request stream.
type WorkloadKind string

// Workload kinds.
const (
	// HeavyTailed draws geometric output lengths (trace.Generator,
	// conversation family): the long-tail chat workload.
	HeavyTailed WorkloadKind = "heavy-tailed"
	// LowEntropy draws draft-friendly repetitive prompts
	// (trace.LowEntropyGenerator): the speculative-decoding workload.
	LowEntropy WorkloadKind = "low-entropy"
	// HotPrefix draws prompts sharing a power-law population of hot
	// prefixes (trace.PrefixGenerator): the prefix-cache workload.
	HotPrefix WorkloadKind = "hot-prefix"
	// Mixed interleaves the code and conversation trace families into
	// one stream (trace.BlendGenerator, 50/50): the mixed front-door
	// traffic the fleet scale study routes.
	Mixed WorkloadKind = "mixed-blend"
)

// Mode is the serving configuration under test — any combination the
// gateway itself accepts (gateway.Config.Validate rejects the invalid
// ones, e.g. speculation over an offload host).
type Mode struct {
	// SpecGamma enables speculative decoding with the given draft depth.
	SpecGamma int `json:"spec_gamma,omitempty"`
	// PrefillChunk enables chunked prefill on both legs: the live
	// gateway's and the virtual machine's chunk mode, which prices each
	// chunk launch as a prefill.
	PrefillChunk int `json:"prefill_chunk,omitempty"`
	// PrefixCache enables cross-request KV prefix reuse (live leg).
	PrefixCache bool `json:"prefix_cache,omitempty"`
	// Quant selects the weight tier: "", "dense", "sparse", "int4lut",
	// "int8".
	Quant string `json:"quant,omitempty"`
	// QuantSparsity is the sparse tier's zero-block fraction.
	QuantSparsity float64 `json:"quant_sparsity,omitempty"`
	// Offload selects the tiered-memory runtime: "", "none", "ddr",
	// "cxl". Non-none modes stream unpinned layers over the host link —
	// the surface the link-fault plans attack.
	Offload string `json:"offload,omitempty"`
}

// ScenarioConfig declares one workload scenario: an arrival process, a
// length distribution, a serving mode, and the queueing/KV envelope.
type ScenarioConfig struct {
	Name     string            `json:"name"`
	Arrival  trace.ArrivalSpec `json:"-"`
	Workload WorkloadKind      `json:"workload"`
	// Requests per trial (default 40).
	Requests int `json:"requests"`
	// MaxBatch and QueueDepth bound the batcher (defaults 4 and 8).
	MaxBatch   int `json:"max_batch"`
	QueueDepth int `json:"queue_depth"`
	// KVTokens bounds the paged KV pool (0 = unconstrained).
	KVTokens int `json:"kv_tokens,omitempty"`
	// Replicas, when ≥2, serves the scenario through the fleet router
	// instead of a single gateway: the virtual leg replays the stream
	// through router.FleetReplay over that many homogeneous replicas
	// (each with the scenario's MaxBatch/QueueDepth/KVTokens envelope),
	// and the live leg drives a real router.Router fleet. Fleet
	// scenarios price the plain dense mode — Mode must be zero.
	Replicas int `json:"replicas,omitempty"`
	// SLO is the per-request completion target on the virtual clock
	// (arrival → finish; default 1.5s). Shed and canceled requests count
	// against attainment.
	SLO  units.Seconds `json:"slo_s"`
	Mode Mode          `json:"mode"`
}

func (s ScenarioConfig) withDefaults() ScenarioConfig {
	if s.Requests == 0 {
		s.Requests = 40
	}
	if s.MaxBatch == 0 {
		s.MaxBatch = 4
	}
	if s.QueueDepth == 0 {
		s.QueueDepth = 8
	}
	if s.SLO == 0 {
		s.SLO = 1.5
	}
	return s
}

// Validate reports scenario errors (after defaulting).
func (s ScenarioConfig) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: scenario needs a name")
	}
	if err := s.Arrival.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	switch s.Workload {
	case HeavyTailed, LowEntropy, HotPrefix, Mixed:
	default:
		return fmt.Errorf("scenario %q: unknown workload %q", s.Name, s.Workload)
	}
	if s.Requests < 1 {
		return fmt.Errorf("scenario %q: Requests must be ≥1, got %d", s.Name, s.Requests)
	}
	if s.MaxBatch < 1 || s.QueueDepth < 1 {
		return fmt.Errorf("scenario %q: MaxBatch/QueueDepth must be ≥1, got %d/%d", s.Name, s.MaxBatch, s.QueueDepth)
	}
	if s.KVTokens < 0 {
		return fmt.Errorf("scenario %q: KVTokens must be ≥0, got %d", s.Name, s.KVTokens)
	}
	if s.SLO <= 0 {
		return fmt.Errorf("scenario %q: SLO must be positive, got %v", s.Name, s.SLO)
	}
	switch s.Mode.Offload {
	case "", "none", "ddr", "cxl":
	default:
		return fmt.Errorf("scenario %q: unknown offload mode %q", s.Name, s.Mode.Offload)
	}
	if s.Mode.SpecGamma > 0 && s.offloaded() {
		return fmt.Errorf("scenario %q: speculative decoding requires the non-offloaded path", s.Name)
	}
	if s.Replicas < 0 {
		return fmt.Errorf("scenario %q: Replicas must be ≥0, got %d", s.Name, s.Replicas)
	}
	if s.Replicas >= 2 && s.Mode != (Mode{}) {
		return fmt.Errorf("scenario %q: fleet scenarios price the plain dense mode; clear Mode", s.Name)
	}
	return nil
}

func (s ScenarioConfig) offloaded() bool {
	return s.Mode.Offload != "" && s.Mode.Offload != "none"
}

// FaultPlan declares the chaos injected into every trial of a cell. The
// zero value (beyond Name) is the healthy baseline: all fields off.
type FaultPlan struct {
	Name string `json:"name"`
	// LinkBWScale degrades the host↔GPU link to this fraction of its
	// bandwidth (0 or 1 = healthy). Only offloaded scenarios feel it.
	LinkBWScale float64 `json:"link_bw_scale,omitempty"`
	// LinkFailEvery makes every k-th link transfer fault transiently
	// (one wasted attempt + retry; 0 = never) — the CXL expander-loss
	// storm.
	LinkFailEvery int `json:"link_fail_every,omitempty"`
	// KVScale multiplies the scenario's KV-pool budget (0 or 1 =
	// unchanged; 0.5 = a tier-pressure spike that halves the pool and
	// forces preemption storms). Requires the scenario to bound KVTokens.
	KVScale float64 `json:"kv_scale,omitempty"`
	// QueueDepth, when positive, overrides the scenario's queue depth —
	// the submit-channel saturation attack.
	QueueDepth int `json:"queue_depth,omitempty"`
	// CancelEvery makes every k-th request's client cancel CancelAfter
	// seconds after its arrival (0 = never) — the mid-flight cancel
	// storm.
	CancelEvery int           `json:"cancel_every,omitempty"`
	CancelAfter units.Seconds `json:"cancel_after_s,omitempty"`
	// DeadlineEvery gives every k-th request a completion deadline
	// Deadline seconds after its arrival (0 = never).
	DeadlineEvery int           `json:"deadline_every,omitempty"`
	Deadline      units.Seconds `json:"deadline_s,omitempty"`
	// ReplicaKillAt, when positive, kills one replica of a fleet
	// scenario at that virtual time: its waiting and running work fails
	// over through the router's placement, and the outcome accounting
	// must still close exactly. ReplicaRespawnAt, when positive,
	// respawns it later. Ignored by single-gateway scenarios (Replicas
	// < 2) — there is no router to route the failover through.
	ReplicaKillAt    units.Seconds `json:"replica_kill_at_s,omitempty"`
	ReplicaRespawnAt units.Seconds `json:"replica_respawn_at_s,omitempty"`
}

// Validate reports fault-plan errors.
func (f FaultPlan) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("scenario: fault plan needs a name")
	}
	if f.LinkBWScale < 0 || f.LinkBWScale > 1 {
		return fmt.Errorf("fault plan %q: LinkBWScale %g outside [0, 1]", f.Name, f.LinkBWScale)
	}
	if f.LinkFailEvery < 0 || f.QueueDepth < 0 || f.CancelEvery < 0 || f.DeadlineEvery < 0 {
		return fmt.Errorf("fault plan %q: counts must be ≥0", f.Name)
	}
	if f.KVScale < 0 || f.KVScale > 1 {
		return fmt.Errorf("fault plan %q: KVScale %g outside [0, 1]", f.Name, f.KVScale)
	}
	if f.CancelEvery > 0 && f.CancelAfter <= 0 {
		return fmt.Errorf("fault plan %q: CancelEvery needs a positive CancelAfter", f.Name)
	}
	if f.DeadlineEvery > 0 && f.Deadline <= 0 {
		return fmt.Errorf("fault plan %q: DeadlineEvery needs a positive Deadline", f.Name)
	}
	if f.ReplicaKillAt < 0 || f.ReplicaRespawnAt < 0 {
		return fmt.Errorf("fault plan %q: replica fault times must be ≥0", f.Name)
	}
	if f.ReplicaRespawnAt > 0 && f.ReplicaRespawnAt <= f.ReplicaKillAt {
		return fmt.Errorf("fault plan %q: ReplicaRespawnAt must follow ReplicaKillAt", f.Name)
	}
	if f.ReplicaRespawnAt > 0 && f.ReplicaKillAt == 0 {
		return fmt.Errorf("fault plan %q: ReplicaRespawnAt needs a ReplicaKillAt", f.Name)
	}
	return nil
}

// healthy reports whether the plan injects nothing.
func (f FaultPlan) healthy() bool {
	return (f.LinkBWScale == 0 || f.LinkBWScale == 1) && f.LinkFailEvery == 0 &&
		(f.KVScale == 0 || f.KVScale == 1) && f.QueueDepth == 0 &&
		f.CancelEvery == 0 && f.DeadlineEvery == 0 && f.ReplicaKillAt == 0
}

// Experiment is the declarative top level: scenarios × faults × trials.
type Experiment struct {
	Name      string           `json:"name"`
	Scenarios []ScenarioConfig `json:"-"`
	Faults    []FaultPlan      `json:"-"`
	// Trials per cell (default 10).
	Trials int `json:"trials"`
	// Seed roots every trial's derived seed.
	Seed int64 `json:"seed"`
	// LiveTrials caps how many of each cell's trials also run the live
	// chaos leg (0 = all of them). The virtual leg always runs.
	LiveTrials int `json:"live_trials,omitempty"`
}

func (e Experiment) withDefaults() Experiment {
	if e.Name == "" {
		e.Name = "scenario-lab"
	}
	if e.Trials == 0 {
		e.Trials = 10
	}
	for i := range e.Scenarios {
		e.Scenarios[i] = e.Scenarios[i].withDefaults()
	}
	return e
}

// Validate reports experiment errors (after defaulting).
func (e Experiment) Validate() error {
	if len(e.Scenarios) == 0 || len(e.Faults) == 0 {
		return fmt.Errorf("scenario: experiment needs ≥1 scenario and ≥1 fault plan")
	}
	if e.Trials < 1 {
		return fmt.Errorf("scenario: Trials must be ≥1, got %d", e.Trials)
	}
	if e.LiveTrials < 0 {
		return fmt.Errorf("scenario: LiveTrials must be ≥0, got %d", e.LiveTrials)
	}
	seen := map[string]bool{}
	for _, s := range e.Scenarios {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("scenario: duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	seen = map[string]bool{}
	for _, f := range e.Faults {
		if err := f.Validate(); err != nil {
			return err
		}
		if seen[f.Name] {
			return fmt.Errorf("scenario: duplicate fault plan name %q", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// Cell is one (scenario, fault) pair of the matrix.
type Cell struct {
	Scenario ScenarioConfig
	Fault    FaultPlan
}

// Cells expands the matrix in declaration order (scenario-major), so
// result ordering — and therefore the emitted artifact — is a pure
// function of the experiment declaration.
func (e Experiment) Cells() []Cell {
	out := make([]Cell, 0, len(e.Scenarios)*len(e.Faults))
	for _, s := range e.Scenarios {
		for _, f := range e.Faults {
			out = append(out, Cell{Scenario: s, Fault: f})
		}
	}
	return out
}

// Default returns the lab's standing experiment: three scenarios
// spanning the arrival processes, length distributions, and serving
// modes, crossed with a healthy baseline and a combined chaos storm —
// the matrix EXPERIMENTS.md publishes.
func Default() Experiment {
	return Experiment{
		Name: "scenario-lab",
		Scenarios: []ScenarioConfig{
			{
				Name:     "bursty-chat",
				Arrival:  trace.ArrivalSpec{Process: trace.Bursty, Rate: 120, BurstMean: 6, BurstGap: 0.0005},
				Workload: HeavyTailed,
				KVTokens: 192,
				SLO:      1.2,
			},
			{
				Name:     "diurnal-chunked-spec",
				Arrival:  trace.ArrivalSpec{Process: trace.Diurnal, Rate: 100, Period: 0.5, Depth: 0.8},
				Workload: LowEntropy,
				KVTokens: 256,
				SLO:      1.0,
				Mode:     Mode{SpecGamma: 2, PrefillChunk: 8},
			},
			{
				Name:     "hot-prefix-cxl",
				Arrival:  trace.ArrivalSpec{Process: trace.Poisson, Rate: 80},
				Workload: HotPrefix,
				KVTokens: 256,
				SLO:      1.5,
				Mode:     Mode{PrefixCache: true, Offload: "cxl"},
			},
		},
		Faults: []FaultPlan{
			{Name: "baseline"},
			{
				Name:          "chaos-storm",
				LinkBWScale:   0.25,
				LinkFailEvery: 5,
				KVScale:       0.5,
				QueueDepth:    5,
				CancelEvery:   3,
				CancelAfter:   0.02,
				DeadlineEvery: 4,
				Deadline:      0.25,
			},
		},
		Trials: 10,
		Seed:   1,
	}
}
