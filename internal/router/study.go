package router

import (
	"encoding/json"
	"fmt"

	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// ScaleCell is one (policy, mix, replica-count) measurement of the scale
// study: the same saturating blend burst replayed through a virtual
// fleet, with throughput and client TTFT percentiles.
type ScaleCell struct {
	Policy        string   `json:"policy"`
	Mix           string   `json:"mix"`
	Replicas      int      `json:"replicas"`
	Devices       []string `json:"devices"`
	Completed     int      `json:"completed"`
	Shed          int      `json:"shed,omitempty"`
	ThroughputRPS float64  `json:"throughput_rps"`
	SpeedupVs1    float64  `json:"speedup_vs_1"`
	TTFTP50Ms     float64  `json:"ttft_p50_ms"`
	TTFTP99Ms     float64  `json:"ttft_p99_ms"`
	MakespanS     float64  `json:"makespan_s"`
}

// ScaleReport is the scale study's result and the BENCH_fleet.json
// payload.
type ScaleReport struct {
	Description string            `json:"description"`
	Model       string            `json:"model"`
	Requests    int               `json:"requests"`
	CodeRatio   float64           `json:"code_ratio"`
	MaxBatch    int               `json:"max_batch"`
	KVTokens    int               `json:"kv_tokens_per_replica"`
	Cells       []ScaleCell       `json:"cells"`
	Summary     map[string]string `json:"summary"`
}

// JSON renders the artifact deterministically (struct field order,
// sorted map keys, indented, trailing newline): identical model + seed ⇒
// identical bytes.
func (r *ScaleReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// scaleDevice is one entry of the heterogeneous rotation: a system plus
// an optional tensor-parallel shard count.
type scaleDevice struct {
	label  string
	system hw.System
	tp     int
}

// ScaleStudy replays one saturating burst of the mixed code/chat blend
// through virtual fleets across the study matrix — placement policy
// (p2c vs round-robin) × fleet mix (homogeneous A100 vs a heterogeneous
// A100/H100/CPU-only/TP rotation) × replica count (1/2/4/8) — and
// reports throughput, speed-up over the 1-replica fleet and TTFT
// percentiles per cell. Every replica serves the same model; the burst
// arrives faster than any fleet drains it, so throughput measures fleet
// capacity and TTFT the queueing it buys down.
func ScaleStudy(cfg model.Config, seed int64) (*ScaleReport, error) {
	const (
		nReqs     = 256
		codeRatio = 0.5
		maxBatch  = 8
		kvTokens  = 2048
		minIn     = 8
		maxIn     = 48
		maxOut    = 48
	)
	gen, err := trace.NewBlendGenerator(codeRatio, minIn, maxIn, seed)
	if err != nil {
		return nil, err
	}
	// One shared request stream: every cell replays the identical burst,
	// so the matrix axes are a controlled A/B. Arrivals ramp in far
	// faster than even the 8-replica fleet drains them (saturation).
	reqs := make([]gateway.ReplayRequest, nReqs)
	for i, r := range gen.Batch(nReqs) {
		reqs[i] = gateway.ReplayRequest{
			PromptLen: r.InputLen,
			OutputLen: min(r.OutputLen, maxOut),
			Arrival:   units.Seconds(float64(i) * 0.005),
		}
	}

	rotation := []scaleDevice{
		{label: "a100", system: hw.SPRA100},
		{label: "h100", system: hw.SPRH100},
		{label: "cpu-amx", system: hw.System{Name: "SPR-CPU", CPU: hw.SPR}},
		{label: "a100-tp4", system: hw.DGXA100, tp: 4},
	}
	// A mix is how many entries of the rotation a fleet cycles through.
	mixes := []struct {
		name  string
		cycle int
	}{
		{"homogeneous", 1},
		{"mixed", len(rotation)},
	}

	rep := &ScaleReport{
		Description: "virtual fleet replay: one saturating 256-request code/chat blend burst placed across N replicas; p2c vs round-robin as the A/B axis, homogeneous (all SPR-A100) vs mixed (A100/H100/CPU-only-AMX/DGX-TP4 rotation) fleets",
		Model:       cfg.Name,
		Requests:    nReqs,
		CodeRatio:   codeRatio,
		MaxBatch:    maxBatch,
		KVTokens:    kvTokens,
		Summary:     map[string]string{},
	}
	for _, policy := range []string{PolicyP2C, PolicyRoundRobin} {
		for _, mix := range mixes {
			var base float64 // the 1-replica fleet's throughput, first in each row
			for _, n := range []int{1, 2, 4, 8} {
				replicas := make([]ReplayReplica, n)
				labels := make([]string, n)
				for i := range replicas {
					d := rotation[i%mix.cycle]
					replicas[i] = ReplayReplica{
						Name:       fmt.Sprintf("%s-%d", d.label, i),
						System:     d.system,
						TPWays:     d.tp,
						MaxBatch:   maxBatch,
						QueueDepth: nReqs,
						KVTokens:   kvTokens,
					}
					labels[i] = d.label
				}
				res, err := FleetReplay(FleetConfig{
					Policy:   policy,
					Seed:     seed,
					Model:    cfg,
					Replicas: replicas,
				}, reqs)
				if err != nil {
					return nil, fmt.Errorf("scale study %s/%s/%d: %w", policy, mix.name, n, err)
				}
				if n == 1 {
					base = res.ThroughputRPS
				}
				cell := ScaleCell{
					Policy:        policy,
					Mix:           mix.name,
					Replicas:      n,
					Devices:       labels,
					Completed:     res.Completed,
					Shed:          res.Shed,
					ThroughputRPS: res.ThroughputRPS,
					TTFTP50Ms:     float64(Percentile(res.TTFTs, 50)) * 1e3,
					TTFTP99Ms:     float64(Percentile(res.TTFTs, 99)) * 1e3,
					MakespanS:     float64(res.Makespan),
				}
				if base > 0 {
					cell.SpeedupVs1 = res.ThroughputRPS / base
				}
				if n == 4 {
					rep.Summary[policy+"/"+mix.name+"/4-replica-speedup"] = fmt.Sprintf("%.2fx", cell.SpeedupVs1)
				}
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	rep.Summary["note"] = "mixed-fleet throughput is makespan-tail-bound by the CPU-only AMX replica (0.29x an A100): p2c's pressure signal steers load off the straggler once its queue builds, but placed work never migrates, so the slow node still sets the tail — the gap between p2c and round-robin in the mixed rows is the placement win"
	return rep, nil
}
