package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/offload"
	"github.com/lia-sim/lia/internal/serve"
	"github.com/lia-sim/lia/internal/spec"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// quantFactor is the nominal compute scaling of each weight tier — the
// serving-speedup ratios the quant bench publishes, frozen here so the
// virtual leg stays self-contained.
func quantFactor(m Mode) float64 {
	switch m.Quant {
	case "int8":
		return 0.65
	case "sparse":
		s := m.QuantSparsity
		if s == 0 {
			s = 0.5
		}
		return 1 - 0.6*s
	case "int4lut":
		return 0.55
	}
	return 1
}

// specAcceptance is the draft-acceptance rate the virtual leg assumes:
// low-entropy streams are draft-friendly, everything else middling.
func specAcceptance(w WorkloadKind) float64 {
	if w == LowEntropy {
		return 0.8
	}
	return 0.6
}

// streamReq is one request of a trial's stream: the virtual-leg shape
// and the live-leg prompt content.
type streamReq struct {
	gateway.ReplayRequest
	Prompt []int
}

// buildStream draws the cell's request stream: workload lengths and
// prompts, arrival times, and the fault plan's cancel/deadline storm.
// Pure function of (cell, seed).
func buildStream(cell Cell, seed int64) ([]streamReq, error) {
	s := cell.Scenario
	arr, err := trace.NewArrivalGen(s.Arrival, seed)
	if err != nil {
		return nil, err
	}
	reqs := make([]streamReq, s.Requests)
	vocab := llm.TinyConfig().VocabSize
	switch s.Workload {
	case HeavyTailed:
		g, err := trace.NewGenerator(trace.Code, 4, 24, seed+1)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + 2))
		for i := range reqs {
			r := g.Next()
			out := r.OutputLen
			if out > 64 { // keep the tail inside the tiny model's window
				out = 64
			}
			prompt := make([]int, r.InputLen)
			for j := range prompt {
				prompt[j] = rng.Intn(vocab)
			}
			reqs[i].PromptLen, reqs[i].OutputLen, reqs[i].Prompt = r.InputLen, out, prompt
		}
	case LowEntropy:
		g, err := trace.NewLowEntropyGenerator(trace.LowEntropySpec{
			Vocab: vocab, HotTokens: 4, RepeatProb: 0.8, MinLen: 6, MaxLen: 20, OutputTokens: 8,
		}, seed+1)
		if err != nil {
			return nil, err
		}
		for i := range reqs {
			r := g.Next()
			reqs[i].PromptLen, reqs[i].OutputLen, reqs[i].Prompt = r.InputLen, r.OutputLen, r.Prompt
		}
	case Mixed:
		g, err := trace.NewBlendGenerator(0.5, 4, 24, seed+1)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + 2))
		for i := range reqs {
			r := g.Next()
			out := r.OutputLen
			if out > 64 { // keep the conversation tail inside the tiny model's window
				out = 64
			}
			prompt := make([]int, r.InputLen)
			for j := range prompt {
				prompt[j] = rng.Intn(vocab)
			}
			reqs[i].PromptLen, reqs[i].OutputLen, reqs[i].Prompt = r.InputLen, out, prompt
		}
	case HotPrefix:
		g, err := trace.NewPrefixGenerator(trace.PrefixSpec{
			Prefixes: 4, PrefixTokens: 8, Skew: 1.2, Vocab: vocab,
			MinSuffix: 2, MaxSuffix: 8, OutputTokens: 6,
		}, seed+1)
		if err != nil {
			return nil, err
		}
		for i := range reqs {
			r := g.Next()
			reqs[i].PromptLen, reqs[i].OutputLen, reqs[i].Prompt = r.InputLen, r.OutputLen, r.Prompt
		}
	default:
		return nil, fmt.Errorf("scenario: unknown workload %q", s.Workload)
	}
	f := cell.Fault
	for i := range reqs {
		reqs[i].Arrival = arr.Next()
		if f.CancelEvery > 0 && (i+1)%f.CancelEvery == 0 {
			reqs[i].CancelAt = reqs[i].Arrival + f.CancelAfter
		}
		if f.DeadlineEvery > 0 && (i+1)%f.DeadlineEvery == 0 {
			reqs[i].Deadline = reqs[i].Arrival + f.Deadline
		}
	}
	return reqs, nil
}

// faultHook builds the plan's offload.LinkFault (nil when the plan
// leaves the link alone).
func faultHook(f FaultPlan) offload.LinkFault {
	scale := f.LinkBWScale
	if scale == 0 {
		scale = 1
	}
	if scale == 1 && f.LinkFailEvery == 0 {
		return nil
	}
	every := uint64(f.LinkFailEvery)
	return func(transfer uint64, _ offload.Tier, _ units.Bytes) (float64, error) {
		if every > 0 && transfer%every == 0 {
			return scale, errors.New("scenario: injected expander fault")
		}
		return scale, nil
	}
}

// offloadPlan is the tiered-memory plan both legs of an offloaded
// scenario stream the tiny model's weights under: DDR-only, or with one
// CXL expander and the paper's placement policy.
func (s ScenarioConfig) offloadPlan() (*offload.Plan, error) {
	cfg := llm.TinyConfig()
	nCXL, placement := 0, cxl.DDROnlyPlacement()
	if s.Mode.Offload == "cxl" {
		nCXL, placement = 1, cxl.PolicyPlacement()
	}
	return offload.NewPlan(offload.Config{
		System:    offload.TinySystem(cfg, 1, 256, 1, nCXL),
		Model:     cfg,
		Batch:     1,
		Context:   256,
		Placement: placement,
	})
}

// virtualCosts builds the replay leg's injected step costs: the shared
// whole-microsecond round closed forms (serve.Round*Cost) scaled by the
// weight tier and speculative speedup. Offloaded scenarios additionally
// pay per-round layer-stream time priced through a fault-hooked
// offload.XferEngine — that is where the chaos plans' degraded links and
// expander faults surface as deterministic latency-tail inflation — and
// the engine is returned so the caller can read fault counters
// afterwards.
func virtualCosts(cell Cell) (*serve.StepCosts, *offload.XferEngine, error) {
	s := cell.Scenario
	qf := quantFactor(s.Mode)
	speedup := 1.0
	if g := s.Mode.SpecGamma; g > 0 {
		speedup = spec.ExpectedTokensPerRound(g, specAcceptance(s.Workload))
	}
	var (
		xfer   *offload.XferEngine
		stream func() units.Seconds
	)
	if s.offloaded() {
		plan, err := s.offloadPlan()
		if err != nil {
			return nil, nil, err
		}
		xfer = offload.NewXferEngine(plan.Link, plan.Pool)
		xfer.SetLinkFault(faultHook(cell.Fault))
		layers, bytes, tier := plan.StreamedLayers(), plan.LayerBytes(), plan.ParamTier
		// One forward pass streams every unpinned layer over the link;
		// the round's added time is the link occupancy delta (transfers
		// serialize, and a faulted transfer's wasted attempt + retry land
		// here as tail inflation).
		stream = func() units.Seconds {
			before := xfer.LinkFree()
			for i := 0; i < layers; i++ {
				xfer.HostToGPU(tier, bytes, before)
			}
			return xfer.LinkFree() - before
		}
	}
	costs := &serve.StepCosts{
		Prefill: func(b, maxIn int) (units.Seconds, error) {
			c := units.Seconds(float64(b*maxIn) * serve.RoundPrefillTokenCost * qf)
			if stream != nil {
				c += stream()
			}
			return c, nil
		},
		Decode: func(b, meanCtx int) (units.Seconds, error) {
			c := units.Seconds((float64(b)*serve.RoundDecodeSeqCost + float64(meanCtx)*serve.RoundDecodeCtxCost) * qf / speedup)
			if stream != nil {
				c += stream()
			}
			return c, nil
		},
	}
	return costs, xfer, nil
}

// TrialResult is one seeded trial's observable outcome: virtual-leg
// statistics (deterministic from the seed) plus, when the trial ran the
// live leg, its invariant verdicts.
type TrialResult struct {
	Seed      int64 `json:"seed"`
	Requests  int   `json:"requests"`
	Completed int   `json:"completed"`
	Shed      int   `json:"shed"`
	Canceled  int   `json:"canceled"`
	Preempted int   `json:"preempted"`
	// Failovers counts requests re-placed off a killed replica (fleet
	// scenarios only).
	Failovers int `json:"failovers,omitempty"`
	Attained  int `json:"attained"` // completed within the scenario SLO

	TTFTP50    float64 `json:"ttft_p50_s"` // over requests that produced a first token
	TTFTP99    float64 `json:"ttft_p99_s"`
	LatencyP50 float64 `json:"latency_p50_s"` // arrival → finish, completed requests
	LatencyP99 float64 `json:"latency_p99_s"`
	Makespan   float64 `json:"makespan_s"`

	LinkTransfers uint64 `json:"link_transfers,omitempty"`
	LinkFaults    uint64 `json:"link_faults,omitempty"`

	Live *LiveResult `json:"live,omitempty"`
}

// LiveResult is the live chaos leg's verdict: outcome tallies from real
// concurrent clients plus the standing invariants. The tallies are
// wall-clock races (whether a cancel timer beats the batcher differs
// run to run) so they stay out of the serialized artifact — only the
// invariant verdicts, which are deterministic whenever they hold, are
// emitted.
type LiveResult struct {
	Requests  int `json:"-"`
	Completed int `json:"-"`
	Canceled  int `json:"-"`
	Shed      int `json:"-"`

	// LeakFree: the gateway's goroutines all exited after Shutdown.
	LeakFree bool `json:"leak_free"`
	// AccountingExact: received == completed + canceled, and the client
	// tallies sum to the submissions, with zero rejects.
	AccountingExact bool `json:"accounting_exact"`
	// BitIdentical: every completed stream matched a solo Generate with
	// the same prompt (checked when the mode guarantees identity;
	// vacuously true otherwise).
	BitIdentical bool `json:"bit_identical"`
}

// Invariants reports whether every standing invariant held.
func (l *LiveResult) Invariants() bool {
	return l != nil && l.LeakFree && l.AccountingExact && l.BitIdentical
}

// envelope applies the fault plan's queue squeeze and KV-pool pressure
// to the scenario's serving envelope: the queue depth and KV pool size
// (in tokens) every leg — virtual or live, one gateway or a fleet — runs
// under.
func (c Cell) envelope() (queue, kvTokens int) {
	s, f := c.Scenario, c.Fault
	queue, kvTokens = s.QueueDepth, s.KVTokens
	if f.QueueDepth > 0 {
		queue = f.QueueDepth
	}
	if f.KVScale > 0 && f.KVScale < 1 && kvTokens > 0 {
		kvTokens = int(float64(kvTokens) * f.KVScale)
	}
	return queue, kvTokens
}

// kvBudget sizes the tiny model's KV pool for kvTokens (0 = unbounded).
func kvBudget(kvTokens int) units.Bytes {
	if kvTokens <= 0 {
		return 0
	}
	return llm.TinyConfig().KVBytes(1, kvTokens)
}

// foldOutcomes turns a virtual leg's replay into the trial record: the
// accounting identity checked, then counts, SLO attainment, and TTFT and
// latency percentiles over the per-request outcomes.
func foldOutcomes(cell Cell, seed int64, res gateway.ReplayResult) (TrialResult, error) {
	s := cell.Scenario
	n := len(res.Requests)
	if got := res.Completed + res.Shed + res.Canceled; got != n {
		return TrialResult{}, fmt.Errorf("scenario %s/%s: outcome accounting broken: %d+%d+%d != %d",
			s.Name, cell.Fault.Name, res.Completed, res.Shed, res.Canceled, n)
	}
	out := TrialResult{
		Seed:      seed,
		Requests:  n,
		Completed: res.Completed,
		Shed:      res.Shed,
		Canceled:  res.Canceled,
		Preempted: res.Preemptions,
		Makespan:  float64(res.Makespan),
	}
	var ttfts, lats []float64
	for _, r := range res.Requests {
		if r.FirstToken > 0 {
			ttfts = append(ttfts, float64(r.FirstToken-r.Arrival))
		}
		if r.Outcome == gateway.ReplayCompleted {
			lat := float64(r.Finish - r.Arrival)
			lats = append(lats, lat)
			if lat <= float64(s.SLO) {
				out.Attained++
			}
		}
	}
	out.TTFTP50, out.TTFTP99 = Percentile(ttfts, 0.50), Percentile(ttfts, 0.99)
	out.LatencyP50, out.LatencyP99 = Percentile(lats, 0.50), Percentile(lats, 0.99)
	return out, nil
}

// RunTrial runs one seeded trial of a cell: always the virtual leg,
// plus the live chaos leg when live is set.
func RunTrial(cell Cell, seed int64, live bool) (TrialResult, error) {
	cell.Scenario = cell.Scenario.withDefaults()
	stream, err := buildStream(cell, seed)
	if err != nil {
		return TrialResult{}, err
	}
	if cell.Scenario.Replicas >= 2 {
		// Fleet scenarios route the stream (and the fault plan's replica
		// kill) through the router instead of a single gateway.
		return runFleetTrial(cell, stream, seed, live)
	}
	costs, xfer, err := virtualCosts(cell)
	if err != nil {
		return TrialResult{}, err
	}
	queue, kvTokens := cell.envelope()
	reqs := make([]gateway.ReplayRequest, len(stream))
	for i, r := range stream {
		reqs[i] = r.ReplayRequest
	}
	res, err := gateway.Replay(gateway.ReplayConfig{
		MaxBatch:      cell.Scenario.MaxBatch,
		Model:         llm.TinyConfig(),
		KVBudget:      kvBudget(kvTokens),
		KVBlockTokens: 4,
		Costs:         costs,
		QueueDepth:    queue,
		PrefillChunk:  cell.Scenario.Mode.PrefillChunk,
	}, reqs)
	if err != nil {
		return TrialResult{}, fmt.Errorf("scenario %s/%s: %w", cell.Scenario.Name, cell.Fault.Name, err)
	}
	out, err := foldOutcomes(cell, seed, res)
	if err != nil {
		return TrialResult{}, err
	}
	if xfer != nil {
		st := xfer.Stats()
		out.LinkTransfers, out.LinkFaults = st.Transfers, st.LinkFaults
	}

	if live {
		lr, err := runLiveTrial(cell, stream, seed)
		if err != nil {
			return TrialResult{}, err
		}
		out.Live = lr
	}
	return out, nil
}

// liveRequests caps the live leg's stream: the chaos leg checks
// invariants, not statistics, so a dozen scaled-down requests exercise
// every code path without making a 10-trial cell take minutes on the
// functional model.
const liveRequests = 12

// runLiveTrial drives the real gateway over the tiny model with real
// concurrent clients and the fault plan's cancel/deadline storm, then
// verdicts the standing invariants.
func runLiveTrial(cell Cell, stream []streamReq, seed int64) (*LiveResult, error) {
	s, f := cell.Scenario, cell.Fault
	modelCfg := llm.TinyConfig()
	baseline := runtime.NumGoroutine()

	m, err := llm.NewRandom(modelCfg, seed)
	if err != nil {
		return nil, err
	}
	var host *offload.Host
	if s.offloaded() {
		plan, err := s.offloadPlan()
		if err != nil {
			return nil, err
		}
		if host, err = offload.NewHost(plan, core.FullGPU); err != nil {
			return nil, err
		}
		defer host.Close()
		if hook := faultHook(f); hook != nil {
			host.InjectLinkFault(hook)
		}
	}
	exec := llm.NewExecutor(m, core.FullGPU)
	if host != nil {
		exec.Mem = host
	}
	queue, kvTokens := cell.envelope()
	g, err := gateway.New(exec, gateway.Config{
		MaxBatch:      s.MaxBatch,
		QueueDepth:    queue,
		KVBudget:      kvBudget(kvTokens),
		KVBlockTokens: 4,
		Offload:       host,
		PrefixCache:   s.Mode.PrefixCache,
		PrefillChunk:  s.Mode.PrefillChunk,
		SpecGamma:     s.Mode.SpecGamma,
		Quant:         s.Mode.Quant,
		QuantSparsity: s.Mode.QuantSparsity,
	})
	if err != nil {
		return nil, err
	}

	jobs := liveJobs(stream)
	n := len(jobs)

	lr := &LiveResult{Requests: n, BitIdentical: true}
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		unknown   int
		completed []liveDone
	)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := jobs[i]
			cancels := f.CancelEvery > 0 && (i+1)%f.CancelEvery == 0
			ctx := context.Background()
			// The tiny model serves a request in microseconds, so the storm's
			// timers live on that scale too; every fourth canceler is dead
			// before it even submits, guaranteeing the cancel path fires no
			// matter how fast the batcher drains.
			if f.DeadlineEvery > 0 && (i+1)%f.DeadlineEvery == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(200+(i%4)*300)*time.Microsecond)
				defer cancel()
			}
			if cancels {
				cctx, cancel := context.WithCancel(ctx)
				ctx = cctx
				if d := time.Duration(i%4) * 250 * time.Microsecond; d == 0 {
					cancel()
				} else {
					t := time.AfterFunc(d, cancel)
					defer t.Stop()
				}
				defer cancel()
			}
			res, err := g.Submit(ctx, j.prompt, j.out)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				lr.Completed++
				completed = append(completed, liveDone{j, res.Tokens})
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				lr.Canceled++
			case errors.Is(err, gateway.ErrOverloaded):
				lr.Shed++
			default:
				unknown++
			}
		}(i)
	}
	wg.Wait()
	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = g.Shutdown(shCtx)
	shCancel()
	if err != nil {
		return nil, fmt.Errorf("scenario %s/%s: live shutdown: %w", s.Name, f.Name, err)
	}

	snap := g.Snapshot()
	lr.AccountingExact = unknown == 0 &&
		lr.Completed+lr.Canceled+lr.Shed == n &&
		snap.Received == uint64(lr.Completed+lr.Canceled) &&
		snap.Completed == uint64(lr.Completed) &&
		snap.Shed == uint64(lr.Shed) &&
		snap.Rejected == 0

	// Bit-identity: each completed stream must equal a solo Generate on
	// an identical fresh executor — the guarantee every serving mode on
	// the dense tier makes. Quantized tiers are deterministic but differ
	// from the BF16 reference, so they are exempt.
	if s.Mode.Quant == "" || s.Mode.Quant == "dense" {
		if lr.BitIdentical, err = bitIdentical(seed, completed); err != nil {
			return nil, err
		}
	}
	lr.LeakFree = goroutinesSettle(baseline)
	return lr, nil
}

// liveJob is one live-leg request: the stream's prompt and output length
// scaled down to the tiny model's microsecond service times.
type liveJob struct {
	prompt []int
	out    int
}

// liveDone is a live request that completed, with the tokens it got.
type liveDone struct {
	liveJob
	tokens []int
}

// liveJobs scales the head of a trial's stream into the live leg's jobs.
func liveJobs(stream []streamReq) []liveJob {
	vocab := llm.TinyConfig().VocabSize
	jobs := make([]liveJob, min(len(stream), liveRequests))
	for i := range jobs {
		p := stream[i].Prompt
		p = p[:min(len(p), 16)]
		prompt := make([]int, len(p))
		for j, t := range p {
			prompt[j] = t % vocab
		}
		jobs[i] = liveJob{prompt: prompt, out: min(stream[i].OutputLen, 6)}
	}
	return jobs
}

// bitIdentical reports whether every completed stream equals a solo
// Generate on a fresh executor over the same seed's weights — whichever
// gateway, replica or failover path produced it.
func bitIdentical(seed int64, completed []liveDone) (bool, error) {
	ref, err := llm.NewRandom(llm.TinyConfig(), seed)
	if err != nil {
		return false, err
	}
	rexec := llm.NewExecutor(ref, core.FullGPU)
	type key struct {
		h uint64
		n int
	}
	seen := map[key][]int{}
	for _, c := range completed {
		k := key{hashTokens(c.prompt), c.out}
		want, ok := seen[k]
		if !ok {
			if want, err = rexec.Generate(c.prompt, c.out); err != nil {
				return false, err
			}
			seen[k] = want
		}
		if !slices.Equal(c.tokens, want) {
			return false, nil
		}
	}
	return true, nil
}

// goroutinesSettle is the leak check: after Shutdown the batchers, all
// clients, and every per-request timer must be gone. Poll with GC nudges
// — timer goroutines and the runtime need a moment to settle.
func goroutinesSettle(baseline int) bool {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// hashTokens is FNV-1a over a token slice (reference-cache key).
func hashTokens(ts []int) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range ts {
		h ^= uint64(uint32(t))
		h *= 1099511628211
	}
	return h
}
