// Package exec is LIA's execution back-end (§5.2, §5.3): it turns an
// offloading policy plus a memory plan into a schedule of PCIe transfers
// and CPU/GPU compute tasks, and times that schedule on the deterministic
// scheduler in package sim. It implements both performance optimizations:
//
//   - Optimization-1 enters through pinned decoder layers (whole layers
//     resident on the GPU, computed there with no parameter transfers).
//   - Optimization-2 enters through overlap: weight transfers for the next
//     decoder layer run concurrently with the current layer's compute
//     (Figure 7). Prefill additionally splits the batch into mini-batches
//     pipelined against the transfers; decode keeps the whole batch
//     (mini-batching decode hurts, §5.2).
package exec

import (
	"fmt"
	"sort"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/sim"
	"github.com/lia-sim/lia/internal/units"
)

// Resource names used in schedules.
const (
	// ResCPU is the host CPU compute stream.
	ResCPU = "cpu"
	// ResGPU is the GPU compute stream.
	ResGPU = "gpu"
	// ResPCIe is the CPU↔GPU transfer engine.
	ResPCIe = "pcie"
)

// Plan configures one stage's execution.
type Plan struct {
	// Env supplies the latency equations.
	Env core.Env
	// Policy assigns streamed layers' sublayers to devices.
	Policy core.Policy
	// Opt carries the residency flags for streamed layers (KV placement).
	Opt core.Options
	// Layers is the decoder layer count to execute.
	Layers int
	// PinnedLayers is how many of those layers are GPU-resident
	// (Optimization-1); they execute fully on the GPU with no parameter
	// traffic.
	PinnedLayers int
	// Overlap enables Optimization-2 (compute/transfer overlap).
	Overlap bool
	// MiniBatches splits the batch for pipelined prefill (≥1). LIA uses 2
	// during prefill and 1 during decode; FlexGen mini-batches both.
	MiniBatches int
	// MiniBatchPenalty inflates per-mini-batch compute time, modeling the
	// sub-linear scaling of compute with smaller batches that makes decode
	// mini-batching a loss (§5.2 cites 1.1–1.3×). Zero means the default.
	MiniBatchPenalty float64
}

// DefaultMiniBatchPenalty matches the paper's observed 1.1–1.3× decode
// penalty midpoint.
const DefaultMiniBatchPenalty = 1.2

// Validate reports plan errors.
func (p Plan) Validate() error {
	if err := p.Env.Validate(); err != nil {
		return err
	}
	if p.Layers <= 0 {
		return fmt.Errorf("exec: plan needs at least one layer")
	}
	if p.PinnedLayers < 0 || p.PinnedLayers > p.Layers {
		return fmt.Errorf("exec: pinned layers %d outside [0, %d]", p.PinnedLayers, p.Layers)
	}
	if p.MiniBatches < 1 {
		return fmt.Errorf("exec: mini-batch count %d must be ≥1", p.MiniBatches)
	}
	return nil
}

// A layer's tasks are of three kinds. compile interns their resources in
// this order, so a kind is also its sim.Resource.
const (
	kindXfer = iota // PCIe loads + stores
	kindCPU         // CPU-assigned sublayer compute
	kindGPU         // GPU-assigned sublayer compute
)

var kindResource = [...]string{ResPCIe, ResCPU, ResGPU}

// layerCost aggregates one decoder layer's work by task kind.
type layerCost [len(kindResource)]units.Seconds

// costFor computes a streamed or pinned layer's resource costs.
func (p Plan) costFor(stage model.Stage, pinned bool, b, l int) layerCost {
	policy := p.Policy
	opt := p.Opt
	if pinned {
		// A pinned layer's parameter sublayers run on the GPU for free
		// (weights resident); attention keeps the streamed policy's
		// placement — the KV cache's home, not the weights', decides it.
		policy = core.Policy{false, p.Policy[model.QKT], p.Policy[model.SV], false, false, false}
		opt.ParamsResident = true
	}
	_, parts := core.LayerLatencyOpts(p.Env, stage, policy, b, l, opt)
	var c layerCost
	for _, br := range parts {
		c[kindXfer] += br.Load + br.Store
		if br.OnCPU {
			c[kindCPU] += br.Compute
		} else {
			c[kindGPU] += br.Compute
		}
	}
	return c
}

// StageResult reports a stage execution's timing.
type StageResult struct {
	// Latency is the schedule makespan.
	Latency units.Seconds
	// CPUBusy, GPUBusy and CommBusy are the per-resource service totals —
	// the Table 5 breakdown.
	CPUBusy, GPUBusy, CommBusy units.Seconds
}

// Add accumulates another result (used to sum decode steps).
func (r *StageResult) Add(o StageResult) {
	r.Latency += o.Latency
	r.CPUBusy += o.CPUBusy
	r.GPUBusy += o.GPUBusy
	r.CommBusy += o.CommBusy
}

// stageGraph is a plan's schedule compiled once: Figure 7's (Layers ×
// mini-batch) topology, which depends on the plan alone, with the
// durations left for run to write. It lives only as long as the call that
// compiled it.
type stageGraph struct {
	plan    Plan
	s       *sim.Schedule
	penalty float64 // inflates per-mini-batch compute; 1 when the batch is whole
}

// compile builds p's task graph: layer after layer, a layer being its
// transfer, then each mini-batch's CPU part and GPU part. p must be valid.
func (p Plan) compile() *stageGraph {
	g := &stageGraph{plan: p, s: sim.NewSchedule(), penalty: 1}
	if p.MiniBatches > 1 {
		g.penalty = p.MiniBatchPenalty
		if g.penalty <= 0 {
			g.penalty = DefaultMiniBatchPenalty
		}
	}
	for _, name := range kindResource {
		g.s.Resource(name)
	}
	// A layer is 1+2·MiniBatches tasks of at most two dependencies each.
	tasks := p.Layers * (1 + 2*p.MiniBatches)
	g.s.Grow(tasks, 2*tasks)
	var prevCompute sim.Handle
	for j := 0; j < p.Layers; j++ {
		var xfer sim.Handle
		if p.Overlap || j == 0 {
			xfer = g.s.AddTask(kindXfer)
		} else {
			// Overlap disabled: the next layer's transfer waits for the
			// previous layer's compute to finish.
			xfer = g.s.AddTask(kindXfer, prevCompute)
		}
		// Per-mini-batch compute. Each mini-batch's CPU part feeds its GPU
		// part, and mini-batches serialize within a layer (they contend for
		// the same engines); their value is letting transfers for the next
		// layer start earlier, which Overlap already provides.
		for m := 0; m < p.MiniBatches; m++ {
			var cpu sim.Handle
			if j == 0 && m == 0 {
				cpu = g.s.AddTask(kindCPU, xfer)
			} else {
				cpu = g.s.AddTask(kindCPU, xfer, prevCompute)
			}
			prevCompute = g.s.AddTask(kindGPU, cpu)
		}
	}
	return g
}

// taskAt locates handle h in the layout compile produced.
func (g *stageGraph) taskAt(h int) (layer, miniBatch, kind int) {
	stride := 1 + 2*g.plan.MiniBatches
	layer, k := h/stride, h%stride
	if k == 0 {
		return layer, 0, kindXfer
	}
	return layer, (k - 1) / 2, kindCPU + (k-1)%2 // CPU part, then GPU part
}

// run times one step on the compiled graph. All streamed layers of a step
// cost the same and so do all pinned ones, so it prices those two classes,
// writes them over the tasks and runs the schedule.
func (g *stageGraph) run(stage model.Stage, b, l int) (StageResult, sim.Result, error) {
	p := &g.plan
	// A task's share of its layer's cost. The penalty models compute's
	// sub-linear scaling with smaller batches — the reason LIA keeps decode
	// whole-batch (§5.2).
	perTask := func(pinned bool) layerCost {
		c := p.costFor(stage, pinned, b, l)
		c[kindCPU] = units.Seconds(float64(c[kindCPU]) / float64(p.MiniBatches) * g.penalty)
		c[kindGPU] = units.Seconds(float64(c[kindGPU]) / float64(p.MiniBatches) * g.penalty)
		return c
	}
	var streamed, pinned layerCost
	if p.PinnedLayers < p.Layers {
		streamed = perTask(false)
	}
	if p.PinnedLayers > 0 {
		pinned = perTask(true)
	}
	for h := 0; h < g.s.Len(); h++ {
		layer, _, kind := g.taskAt(h)
		d := streamed[kind]
		if layer < p.PinnedLayers {
			d = pinned[kind]
		}
		if err := g.s.SetDuration(sim.Handle(h), d); err != nil {
			return StageResult{}, sim.Result{}, fmt.Errorf("exec: %w", err)
		}
	}
	res, err := g.s.Run()
	if err != nil {
		return StageResult{}, sim.Result{}, fmt.Errorf("exec: %w", err)
	}
	return StageResult{
		Latency:  res.Makespan,
		CPUBusy:  res.Busy(kindCPU),
		GPUBusy:  res.Busy(kindGPU),
		CommBusy: res.Busy(kindXfer),
	}, res, nil
}

// RunStage executes one stage (a full prefill pass, or one decode step)
// across all layers and returns its timing. b is the batch size; l is the
// input length (prefill) or current context length (decode).
func (p Plan) RunStage(stage model.Stage, b, l int) (StageResult, error) {
	if err := p.Validate(); err != nil {
		return StageResult{}, err
	}
	r, _, err := p.compile().run(stage, b, l)
	return r, err
}

// RunDecodeSequence executes `steps` decode iterations with the context
// growing from startLen, summing their timings — the Gen stage of one
// batch. The graph is compiled once and re-timed for every step.
func (p Plan) RunDecodeSequence(b, startLen, steps int) (StageResult, error) {
	var total StageResult
	if steps <= 0 {
		return total, nil
	}
	if err := p.Validate(); err != nil {
		return StageResult{}, err
	}
	g := p.compile()
	for t := 0; t < steps; t++ {
		r, _, err := g.run(model.Decode, b, startLen+t)
		if err != nil {
			return StageResult{}, err
		}
		total.Add(r)
	}
	return total, nil
}

// TraceEntry is one executed task in a stage's timeline.
type TraceEntry struct {
	// ID names the task (e.g. "xfer-12", "gpu-3-0").
	ID string
	// Resource is the serial executor the task ran on.
	Resource string
	// Start and Finish bound the execution interval.
	Start, Finish units.Seconds
}

// TraceStage executes one stage like RunStage but also returns the full
// task timeline, ordered by start time — the raw material for a Gantt
// view of the Figure 7 overlap.
func (p Plan) TraceStage(stage model.Stage, b, l int) (StageResult, []TraceEntry, error) {
	if err := p.Validate(); err != nil {
		return StageResult{}, nil, err
	}
	g := p.compile()
	r, res, err := g.run(stage, b, l)
	if err != nil {
		return StageResult{}, nil, err
	}
	entries := make([]TraceEntry, g.s.Len())
	for h := range entries {
		layer, miniBatch, kind := g.taskAt(h)
		id := fmt.Sprintf("xfer-%d", layer)
		if kind != kindXfer { // a compute task is named after its resource
			id = fmt.Sprintf("%s-%d-%d", kindResource[kind], layer, miniBatch)
		}
		entries[h] = TraceEntry{id, kindResource[kind], res.Start(sim.Handle(h)), res.Finish(sim.Handle(h))}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Start != entries[j].Start {
			return entries[i].Start < entries[j].Start
		}
		return entries[i].ID < entries[j].ID
	})
	return r, entries, nil
}
