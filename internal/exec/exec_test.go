package exec

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/sim"
	"github.com/lia-sim/lia/internal/units"
)

func basePlan() Plan {
	return Plan{
		Env:         core.NewEnv(hw.SPRA100, model.OPT30B),
		Policy:      core.FullGPU,
		Layers:      model.OPT30B.Layers,
		Overlap:     true,
		MiniBatches: 1,
	}
}

func TestValidate(t *testing.T) {
	p := basePlan()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Layers = 0
	if p.Validate() == nil {
		t.Error("zero layers accepted")
	}
	p = basePlan()
	p.PinnedLayers = 99
	if p.Validate() == nil {
		t.Error("pinned > layers accepted")
	}
	p = basePlan()
	p.MiniBatches = 0
	if p.Validate() == nil {
		t.Error("zero mini-batches accepted")
	}
}

// TestOverlapHidesTransfers: with overlap on, the makespan approaches
// max(comm, compute) instead of their sum (Figure 7).
func TestOverlapHidesTransfers(t *testing.T) {
	on := basePlan()
	off := basePlan()
	off.Overlap = false
	rOn, err := on.RunStage(model.Prefill, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := off.RunStage(model.Prefill, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	if rOn.Latency >= rOff.Latency {
		t.Errorf("overlap should reduce latency: %v vs %v", rOn.Latency, rOff.Latency)
	}
	// Busy totals are placement-determined, not overlap-determined.
	if rOn.CommBusy != rOff.CommBusy || rOn.GPUBusy != rOff.GPUBusy {
		t.Error("overlap must not change resource busy totals")
	}
	// Lower bound: no schedule can beat the busiest resource.
	busiest := rOn.CommBusy
	if rOn.GPUBusy > busiest {
		busiest = rOn.GPUBusy
	}
	if rOn.CPUBusy > busiest {
		busiest = rOn.CPUBusy
	}
	if rOn.Latency < busiest {
		t.Errorf("latency %v below busiest resource %v", rOn.Latency, busiest)
	}
	// Serial upper bound.
	serial := rOn.CommBusy + rOn.GPUBusy + rOn.CPUBusy
	if rOff.Latency > serial*1.0000001 {
		t.Errorf("non-overlapped latency %v exceeds serial sum %v", rOff.Latency, serial)
	}
}

// TestPinnedLayersReduceComm: Optimization-1 removes parameter traffic
// for pinned layers.
func TestPinnedLayersReduceComm(t *testing.T) {
	unpinned := basePlan()
	pinned := basePlan()
	pinned.PinnedLayers = 24
	r0, err := unpinned.RunStage(model.Decode, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pinned.RunStage(model.Decode, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CommBusy >= r0.CommBusy {
		t.Errorf("pinning should cut comm: %v vs %v", r1.CommBusy, r0.CommBusy)
	}
	if r1.Latency >= r0.Latency {
		t.Errorf("pinning should cut latency: %v vs %v", r1.Latency, r0.Latency)
	}
}

// TestDecodeMiniBatchingHurts reproduces §5.2: splitting the decode batch
// into mini-batches (FlexGen's approach) inflates latency by ~1.1–1.3×.
func TestDecodeMiniBatchingHurts(t *testing.T) {
	whole := basePlan()
	whole.Policy = core.PartialCPU
	split := whole
	split.MiniBatches = 2
	rWhole, err := whole.RunStage(model.Decode, 900, 256)
	if err != nil {
		t.Fatal(err)
	}
	rSplit, err := split.RunStage(model.Decode, 900, 256)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rSplit.Latency) / float64(rWhole.Latency)
	if ratio < 1.02 || ratio > 1.5 {
		t.Errorf("mini-batched decode penalty = %.2fx, want within (1.0, 1.5] (paper: 1.1-1.3x)", ratio)
	}
}

// TestPrefillMiniBatchingHelps: during prefill, mini-batching lets
// compute hide behind transfers when transfers dominate.
func TestPrefillMiniBatchingHelps(t *testing.T) {
	// OPT-175B streamed fully over PCIe: comm-bound, so pipelining
	// mini-batches cannot hurt much and the first compute starts earlier.
	p := Plan{
		Env:         core.NewEnv(hw.SPRA100, model.OPT175B),
		Policy:      core.FullGPU,
		Layers:      8,
		Overlap:     true,
		MiniBatches: 1,
	}
	split := p
	split.MiniBatches = 2
	split.MiniBatchPenalty = 1.1
	r1, err := p.RunStage(model.Prefill, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := split.RunStage(model.Prefill, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Comm dominates, so the pipelined version must stay within a few
	// percent of the unsplit one (the penalty hides under transfers).
	if float64(r2.Latency) > 1.05*float64(r1.Latency) {
		t.Errorf("comm-bound prefill mini-batching cost too much: %v vs %v", r2.Latency, r1.Latency)
	}
}

func TestRunDecodeSequenceGrowsContext(t *testing.T) {
	p := basePlan()
	p.Policy = core.FullCPU
	p.Layers = 4
	r, err := p.RunDecodeSequence(8, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	single, err := p.RunStage(model.Decode, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	// 16 steps with growing context cost at least 16× the first step.
	if r.Latency < 16*single.Latency {
		t.Errorf("sequence latency %v below 16 × first step %v", r.Latency, single.Latency)
	}
}

// TestCPUPolicyShiftsBusyTime: a full-CPU policy leaves the GPU idle.
func TestCPUPolicyShiftsBusyTime(t *testing.T) {
	p := basePlan()
	p.Policy = core.FullCPU
	r, err := p.RunStage(model.Decode, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	if r.GPUBusy != 0 {
		t.Errorf("full-CPU policy should not use the GPU, got %v", r.GPUBusy)
	}
	if r.CPUBusy <= 0 {
		t.Error("full-CPU policy must use the CPU")
	}
	if r.CommBusy != 0 {
		t.Errorf("full-CPU decode has no PCIe traffic, got %v", r.CommBusy)
	}
}

func TestTraceStage(t *testing.T) {
	p := basePlan()
	p.Layers = 4
	res, entries, err := p.TraceStage(model.Prefill, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4*3 { // xfer + cpu + gpu per layer
		t.Fatalf("%d entries, want 12", len(entries))
	}
	// Sorted by start; finishes bound the makespan; resources recovered.
	prev := units.Seconds(-1)
	for _, e := range entries {
		if e.Start < prev {
			t.Fatal("entries not sorted by start")
		}
		prev = e.Start
		if e.Finish > res.Latency {
			t.Errorf("%s finishes at %v beyond makespan %v", e.ID, e.Finish, res.Latency)
		}
		switch e.Resource {
		case ResCPU, ResGPU, ResPCIe:
		default:
			t.Errorf("bad resource %q", e.Resource)
		}
	}
	// Trace and RunStage agree.
	plain, err := p.RunStage(model.Prefill, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Latency != res.Latency {
		t.Error("TraceStage and RunStage disagree")
	}
}

// referenceSchedule is the oracle for the compiled path: the schedule
// builder as it was before stages were compiled — one costFor per layer,
// every task named, a fresh by-name schedule per call.
func referenceSchedule(p Plan, stage model.Stage, b, l int) *sim.Schedule {
	nMB := p.MiniBatches
	penalty := p.MiniBatchPenalty
	if penalty <= 0 {
		penalty = DefaultMiniBatchPenalty
	}
	if nMB == 1 {
		penalty = 1
	}
	s := sim.NewSchedule()
	prevComputeID := ""
	for j := 0; j < p.Layers; j++ {
		c := p.costFor(stage, j < p.PinnedLayers, b, l)
		comm, cpu, gpu := c[kindXfer], c[kindCPU], c[kindGPU]
		xferID := fmt.Sprintf("xfer-%d", j)
		var xferDeps []string
		if !p.Overlap && prevComputeID != "" {
			xferDeps = []string{prevComputeID}
		}
		s.MustAdd(sim.Task{ID: xferID, Resource: ResPCIe, Duration: comm, Deps: xferDeps})
		perMBcpu := units.Seconds(float64(cpu) / float64(nMB) * penalty)
		perMBgpu := units.Seconds(float64(gpu) / float64(nMB) * penalty)
		for m := 0; m < nMB; m++ {
			cpuID := fmt.Sprintf("cpu-%d-%d", j, m)
			gpuID := fmt.Sprintf("gpu-%d-%d", j, m)
			cpuDeps := []string{xferID}
			if m > 0 {
				cpuDeps = append(cpuDeps, fmt.Sprintf("gpu-%d-%d", j, m-1))
			} else if j > 0 {
				cpuDeps = append(cpuDeps, prevComputeID)
			}
			s.MustAdd(sim.Task{ID: cpuID, Resource: ResCPU, Duration: perMBcpu, Deps: cpuDeps})
			s.MustAdd(sim.Task{ID: gpuID, Resource: ResGPU, Duration: perMBgpu, Deps: []string{cpuID}})
		}
		prevComputeID = fmt.Sprintf("gpu-%d-%d", j, nMB-1)
	}
	return s
}

// referenceRunStage is RunStage over referenceSchedule.
func referenceRunStage(t *testing.T, p Plan, stage model.Stage, b, l int) StageResult {
	t.Helper()
	s := referenceSchedule(p, stage, b, l)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return StageResult{
		Latency:  res.Makespan,
		CPUBusy:  res.Busy(s.Resource(ResCPU)),
		GPUBusy:  res.Busy(s.Resource(ResGPU)),
		CommBusy: res.Busy(s.Resource(ResPCIe)),
	}
}

// sameBits reports whether two timings are the same float64 bit patterns.
func sameBits(a, b StageResult) bool {
	bits := func(x units.Seconds) uint64 { return math.Float64bits(float64(x)) }
	return bits(a.Latency) == bits(b.Latency) && bits(a.CPUBusy) == bits(b.CPUBusy) &&
		bits(a.GPUBusy) == bits(b.GPUBusy) && bits(a.CommBusy) == bits(b.CommBusy)
}

// TestCompiledStageMatchesReference: the compiled path (one topology per
// call, two cost classes per step) returns the reference's timing bit for
// bit over both stages, every policy, pinning from none to all, overlap
// on and off, whole and split batches, and both KV homes.
func TestCompiledStageMatchesReference(t *testing.T) {
	const layers = 6
	shapes := [][2]int{{1, 64}, {8, 300}, {900, 256}}
	cases := 0
	for _, stage := range []model.Stage{model.Prefill, model.Decode} {
		for _, policy := range core.AllPolicies() {
			for _, pinned := range []int{0, 1, layers / 2, layers} {
				for _, overlap := range []bool{false, true} {
					for _, nMB := range []int{1, 2, 3} {
						for _, kvOnGPU := range []bool{false, true} {
							p := Plan{
								Env:          core.NewEnv(hw.SPRA100, model.OPT30B),
								Policy:       policy,
								Opt:          core.Options{KVOnGPU: kvOnGPU},
								Layers:       layers,
								PinnedLayers: pinned,
								Overlap:      overlap,
								MiniBatches:  nMB,
							}
							for _, bl := range shapes {
								got, err := p.RunStage(stage, bl[0], bl[1])
								if err != nil {
									t.Fatal(err)
								}
								if want := referenceRunStage(t, p, stage, bl[0], bl[1]); !sameBits(got, want) {
									t.Fatalf("%v policy %v pinned %d overlap %v nMB %d kvOnGPU %v (b, l) %v:\n got  %+v\n want %+v",
										stage, policy, pinned, overlap, nMB, kvOnGPU, bl, got, want)
								}
								cases++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// TestCompiledStageMatchesReferenceFullDepth repeats the comparison on
// the paper's two models at full depth, with an explicit mini-batch
// penalty, where 48 and 96 layers of accumulated busy time would show a
// reordered sum.
func TestCompiledStageMatchesReferenceFullDepth(t *testing.T) {
	for _, m := range []model.Config{model.OPT30B, model.OPT175B} {
		for _, stage := range []model.Stage{model.Prefill, model.Decode} {
			for _, policy := range []core.Policy{core.FullGPU, core.FullCPU, core.PartialCPU} {
				for _, pinned := range []int{0, 7, m.Layers} {
					p := Plan{
						Env:              core.NewEnv(hw.SPRA100, m),
						Policy:           policy,
						Layers:           m.Layers,
						PinnedLayers:     pinned,
						Overlap:          pinned != 7,
						MiniBatches:      2,
						MiniBatchPenalty: 1.1,
					}
					got, err := p.RunStage(stage, 64, 512)
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceRunStage(t, p, stage, 64, 512); !sameBits(got, want) {
						t.Errorf("%s %v policy %v pinned %d:\n got  %+v\n want %+v", m.Name, stage, policy, pinned, got, want)
					}
				}
			}
		}
	}
}

// TestRunDecodeSequenceIsRunningSum: replaying one compiled graph over n
// steps equals n independent RunStage calls summed in order, bit for bit.
func TestRunDecodeSequenceIsRunningSum(t *testing.T) {
	p := basePlan()
	p.Policy = core.PartialCPU
	p.PinnedLayers = 5
	for _, n := range []int{1, 2, 33} {
		var want StageResult
		for step := 0; step < n; step++ {
			r, err := p.RunStage(model.Decode, 4, 200+step)
			if err != nil {
				t.Fatal(err)
			}
			want.Add(r)
		}
		got, err := p.RunDecodeSequence(4, 200, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Errorf("%d steps: got %+v, want %+v", n, got, want)
		}
	}
}

// TestRunDecodeSequenceZeroSteps: no steps is zero time, whatever the plan.
func TestRunDecodeSequenceZeroSteps(t *testing.T) {
	var invalid Plan
	if invalid.Validate() == nil {
		t.Fatal("the zero plan should be invalid")
	}
	got, err := invalid.RunDecodeSequence(4, 200, 0)
	if err != nil || got != (StageResult{}) {
		t.Errorf("zero steps = %+v, %v; want zero and no error", got, err)
	}
	if _, err := invalid.RunDecodeSequence(4, 200, 1); err == nil {
		t.Error("one step of an invalid plan ran")
	}
}

// TestTraceStageMatchesReference: the timeline keeps the reference's task
// IDs, resources and times, in (start, ID) order.
func TestTraceStageMatchesReference(t *testing.T) {
	for _, nMB := range []int{1, 2, 3} {
		for _, overlap := range []bool{false, true} {
			p := basePlan()
			p.Policy = core.PartialCPU
			p.Layers = 5
			p.PinnedLayers = 2
			p.Overlap = overlap
			p.MiniBatches = nMB
			_, got, err := p.TraceStage(model.Prefill, 8, 128)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != p.Layers*(1+2*nMB) {
				t.Fatalf("nMB %d: %d entries, want %d", nMB, len(got), p.Layers*(1+2*nMB))
			}
			s := referenceSchedule(p, model.Prefill, 8, 128)
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range got {
				h, ok := s.Lookup(e.ID)
				if !ok {
					t.Fatalf("nMB %d: the reference has no task %q", nMB, e.ID)
				}
				if e.Start != res.Start(h) || e.Finish != res.Finish(h) {
					t.Errorf("nMB %d: %s ran [%v, %v], want [%v, %v]", nMB, e.ID, e.Start, e.Finish, res.Start(h), res.Finish(h))
				}
				if want := map[byte]string{'x': ResPCIe, 'c': ResCPU, 'g': ResGPU}[e.ID[0]]; e.Resource != want {
					t.Errorf("nMB %d: %s on %q, want %q", nMB, e.ID, e.Resource, want)
				}
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool {
				if got[i].Start != got[j].Start {
					return got[i].Start < got[j].Start
				}
				return got[i].ID < got[j].ID
			}) {
				t.Errorf("nMB %d overlap %v: entries are not in (start, ID) order", nMB, overlap)
			}
		}
	}
}

// TestAllocBudgets: a decode step replayed on a compiled 96-layer graph
// allocates nothing; a one-shot RunStage allocates only its graph — 7
// allocations today: the graph, the schedule, its pre-sized task and
// dependency slices, and the resource slice growing to three.
func TestAllocBudgets(t *testing.T) {
	p := Plan{
		Env:          core.NewEnv(hw.SPRA100, model.OPT175B),
		Policy:       core.PartialCPU,
		Layers:       model.OPT175B.Layers,
		PinnedLayers: 10,
		Overlap:      true,
		MiniBatches:  1,
	}
	g := p.compile()
	l := 512
	step := func() {
		if _, _, err := g.run(model.Decode, 1, l); err != nil {
			t.Fatal(err)
		}
		l++
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("a replayed decode step allocates %v times, want 0", allocs)
	}
	const oneShotBudget = 10
	oneShot := testing.AllocsPerRun(20, func() {
		if _, err := p.RunStage(model.Decode, 1, 512); err != nil {
			t.Fatal(err)
		}
	})
	if oneShot > oneShotBudget {
		t.Errorf("a one-shot RunStage allocates %v times, budget %d", oneShot, oneShotBudget)
	}
	t.Logf("one-shot RunStage: %v allocations", oneShot)
}
