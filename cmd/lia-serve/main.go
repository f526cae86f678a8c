// Command lia-serve runs the serving layer in two modes.
//
// Simulator (default): Poisson arrivals drawn from the Azure-style trace
// distributions (§7), a batcher with a size cap and waiting window, and
// the chosen framework as the analytic backend. Reports per-request
// latency percentiles and sustained throughput.
//
//	lia-serve -system SPR-A100 -model OPT-30B -rate 2 -requests 64 -max-batch 16
//
// Live (-live): a real HTTP gateway over the functional inference engine
// — the same iteration-level continuous-batching policy the simulator
// runs, driving llm.Executor under concurrent traffic with bounded-queue
// load shedding, per-request deadlines, and Prometheus metrics:
//
//	lia-serve -live -addr :8080 -live-model tiny -max-batch 8
//	curl -s localhost:8080/v1/generate -d '{"prompt":[5,17,42],"max_new_tokens":8}'
//
// Live bench (-live-bench): drives the in-process gateway with
// concurrent closed-loop clients for a fixed window and prints sustained
// req/s plus exact client-side TTFT percentiles as JSON (the
// BENCH_gateway.json baseline).
//
// The live modes optionally host the engine's weights and KV cache in
// the tiered-memory runtime (-offload ddr or -offload cxl): tokens stay
// bit-identical, admission derives its KV budget from the KV tier, and
// /metrics gains the lia_offload_* counters. Offload bench
// (-offload-bench) compares resident against DDR-streamed and
// CXL-streamed hosting on the tiny model and prints the virtual-clock
// decode latencies as JSON (the BENCH_offload.json baseline).
//
// -prefix-cache turns on cross-request KV reuse in the live modes: a
// radix tree over the paged KV pool serves shared prompt prefixes from
// cache, prefill skips the cached tokens, and /metrics gains the
// lia_prefix_* counters. Prefix bench (-prefix-bench) replays a skewed
// hot-prefix trace with the cache off and on, checks the token streams
// stay bit-identical, and prints TTFT percentiles plus the analytic
// concurrency win as JSON (the BENCH_prefix.json baseline).
//
// The latency ladder rides on the live modes: -spec γ enables greedy
// speculative decoding against a truncated self-draft
// (-spec-draft-layers deep), -prefill-chunk bounds how many prompt
// tokens one scheduling round prefills so decodes interleave with long
// arrivals. Both keep tokens bit-identical. Chunked bench
// (-chunked-bench) serves the same short/long-prompt mix monolithic and
// chunked and prints short-request TTFT percentiles as JSON.
//
// -quant selects a compressed weight tier for the live modes: "sparse"
// prunes to block-sparsity -quant-sparsity and skips zero tile blocks
// (tokens bit-identical to dense compute over the pruned weights),
// "int4lut" serves 4-bit group-quantized weights through the LUT-GEMV
// kernel (documented tolerance vs the dequantized reference), "int8"
// the existing AMX INT8 path. /metrics gains the lia_quant_* gauges.
// Quant bench (-quant-bench) decodes the same stream under dense,
// sparse, and int4lut and prints per-tier decode speed, footprint, and
// accuracy as JSON (the BENCH_quant.json baseline).
//
// Scenario lab (-scenario) runs the statistical experiment harness: the
// standing matrix of workload scenarios × chaos fault plans
// (internal/scenario), N seeded trials per cell, each trial a
// deterministic virtual-clock replay plus a live chaos leg over the
// real gateway asserting the standing invariants. Prints the
// byte-reproducible JSON artifact on stdout (the BENCH_scenario.json
// baseline) and the SLO verdict table on stderr; -scenario-trials and
// -scenario-live rescale the matrix.
//
// Fleet bench (-fleet-bench) replays one saturating code/chat blend
// burst through virtual multi-replica fleets (internal/router) across
// the scale-study matrix — placement policy (p2c vs round-robin) ×
// replica count (1/2/4/8) × fleet mix (homogeneous A100 vs a
// heterogeneous A100/H100/CPU-only-AMX/DGX-TP4 rotation) — and prints
// per-cell throughput plus TTFT percentiles as JSON (the
// BENCH_fleet.json baseline).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/lia-sim/lia"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/engine"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/offload"
	"github.com/lia-sim/lia/internal/quant"
	"github.com/lia-sim/lia/internal/serve"
	"github.com/lia-sim/lia/internal/tensor"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

func main() {
	var (
		// Simulator flags.
		systemName = flag.String("system", "SPR-A100", "system name (simulator)")
		modelName  = flag.String("model", "OPT-30B", "model name (simulator)")
		fwName     = flag.String("framework", "LIA", "backend framework (simulator)")
		kind       = flag.String("trace", "code", "trace family: code (Lout≈32) or conversation (Lout≈256)")
		rate       = flag.Float64("rate", 1, "arrival rate, requests/second (simulator)")
		n          = flag.Int("requests", 64, "number of requests to simulate")
		maxWait    = flag.Float64("max-wait", 5, "batching window, seconds (static simulator)")
		continuous = flag.Bool("continuous", false, "iteration-level (continuous) batching instead of static batches")
		kvBudgetGB = flag.Float64("kv-budget-gb", 0, "paged KV-cache pool size in GB (continuous only; 0 = unconstrained)")

		// Shared.
		maxBatch = flag.Int("max-batch", 16, "batch size cap")
		seed     = flag.Int64("seed", 1, "random seed")

		// Live gateway flags.
		live       = flag.Bool("live", false, "serve real inference over HTTP instead of simulating")
		liveBench  = flag.Bool("live-bench", false, "benchmark the in-process live gateway and print JSON")
		addr       = flag.String("addr", ":8080", "listen address (live)")
		liveModel  = flag.String("live-model", "tiny", "functional model: tiny or tiny-llama (live)")
		livePolicy = flag.String("live-policy", "partial", "offloading policy: gpu, cpu, or partial (live)")
		queueDepth = flag.Int("queue-depth", 64, "admission queue bound; excess sheds with 429 (live)")
		kvTokens   = flag.Int("live-kv-tokens", 0, "paged KV pool capacity in tokens (live; 0 = unconstrained)")
		drainSecs  = flag.Float64("drain-timeout", 30, "graceful shutdown drain budget, seconds (live)")
		offloadTo  = flag.String("offload", "none", "tiered-memory hosting of weights and KV: none, ddr, or cxl (live)")
		prefixOn   = flag.Bool("prefix-cache", false, "cross-request KV prefix reuse over the paged pool (live)")

		// Latency-ladder flags (live modes).
		specGamma    = flag.Int("spec", 0, "speculative decoding draft depth γ; 0 disables (live)")
		specDraft    = flag.Int("spec-draft-layers", 1, "decoder layers in the truncated self-draft model (live, with -spec)")
		prefillChunk = flag.Int("prefill-chunk", 0, "prompt tokens prefilled per scheduling round; 0 = whole prompt at admission (live)")

		// Offload bench flag (uses -live-model, -bench-tokens, -seed).
		offloadBench = flag.Bool("offload-bench", false, "compare resident vs ddr vs cxl tiered hosting and print JSON")

		// Prefix bench flag (uses -live-model, -seed).
		prefixBench = flag.Bool("prefix-bench", false, "replay a hot-prefix trace with the prefix cache off and on and print JSON")

		// Chunked-prefill bench flag (uses -live-model, -prefill-chunk, -seed).
		chunkedBench = flag.Bool("chunked-bench", false, "serve a mixed short/long-prompt workload with chunked prefill off and on and print JSON")

		// Compressed-weight tier flags (live modes).
		quantTier     = flag.String("quant", "", "compressed weight tier: dense, sparse, int4lut, or int8 (live)")
		quantSparsity = flag.Float64("quant-sparsity", 0, "target zero tile-block fraction for -quant sparse; 0 = default 0.5")
		quantGroup    = flag.Int("quant-group", 0, "INT4 group length for -quant int4lut; 0 = default")

		// Quant bench flag (uses -live-model, -live-policy, -bench-tokens, -seed).
		quantBench = flag.Bool("quant-bench", false, "decode the same stream under dense, sparse, and int4lut tiers and print JSON")

		// Scenario lab flags (uses -seed; artifact JSON on stdout, verdict
		// table on stderr).
		scenarioLab    = flag.Bool("scenario", false, "run the scenario-lab experiment matrix and print the deterministic JSON artifact")
		scenarioTrials = flag.Int("scenario-trials", 0, "trials per matrix cell; 0 = experiment default (scenario)")
		scenarioLive   = flag.Int("scenario-live", -1, "live chaos legs per cell; -1 = experiment default, 0 = all trials (scenario)")

		// Fleet bench flag (uses -live-model, -seed).
		fleetBench = flag.Bool("fleet-bench", false, "replay a saturating blend burst across the fleet matrix (policy x replicas x mix) and print JSON")

		// Live bench flags.
		benchClients = flag.Int("bench-clients", 8, "concurrent closed-loop clients (live-bench)")
		benchSecs    = flag.Float64("bench-seconds", 3, "measurement window, seconds (live-bench)")
		benchTokens  = flag.Int("bench-tokens", 16, "tokens generated per request (live-bench)")
	)
	flag.Parse()

	if *scenarioLab {
		if err := runScenarioLab(*scenarioTrials, *scenarioLive, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *fleetBench {
		if err := runFleetBench(*liveModel, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *offloadBench {
		if err := runOffloadBench(*liveModel, *benchTokens, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *prefixBench {
		if err := runPrefixBench(*liveModel, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *chunkedBench {
		chunk := *prefillChunk
		if chunk <= 0 {
			chunk = 4
		}
		if err := runChunkedBench(*liveModel, chunk, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *quantBench {
		if err := runQuantBench(*liveModel, *livePolicy, *benchTokens, *quantSparsity, *quantGroup, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *live || *liveBench {
		g, host, desc, err := buildGateway(*liveModel, *livePolicy, *offloadTo, *maxBatch, *queueDepth, *kvTokens, *prefixOn, *prefillChunk, *specGamma, *specDraft, *quantTier, *quantSparsity, *quantGroup, *seed)
		if err != nil {
			fatal(err)
		}
		if host != nil {
			defer host.Close()
		}
		if *liveBench {
			err = runBench(g, desc, *benchClients, *benchSecs, *benchTokens, *seed)
		} else {
			err = runLive(g, desc, *addr, *drainSecs)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	runSimulator(*systemName, *modelName, *fwName, *kind, *rate, *n, *maxBatch, *maxWait, *seed, *continuous, *kvBudgetGB)
}

// liveModelConfig resolves the functional-model flag.
func liveModelConfig(modelName string) (model.Config, error) {
	switch strings.ToLower(modelName) {
	case "tiny":
		return llm.TinyConfig(), nil
	case "tiny-llama", "tinyllama":
		return llm.TinyLlamaConfig(), nil
	default:
		return model.Config{}, fmt.Errorf("unknown live model %q (want tiny or tiny-llama)", modelName)
	}
}

// parsePolicy resolves the offloading-policy flag.
func parsePolicy(policyName string) (core.Policy, error) {
	switch strings.ToLower(policyName) {
	case "gpu":
		return core.Policy{}, nil // zero value: everything on GPU
	case "cpu":
		return core.FullCPU, nil
	case "partial":
		return core.PartialCPU, nil
	default:
		return core.Policy{}, fmt.Errorf("unknown policy %q (want gpu, cpu, or partial)", policyName)
	}
}

// buildOffloadHost assembles the tiered-memory runtime over a
// laptop-scale system that pins one decoder layer: "ddr" streams the
// rest from host DRAM, "cxl" attaches an expander and places parameters
// there under the §6 policy. Mode "none" returns nil.
func buildOffloadHost(cfg model.Config, mode string, pol core.Policy) (*offload.Host, error) {
	nCXL, placement := 0, cxl.DDROnlyPlacement()
	switch strings.ToLower(mode) {
	case "none", "":
		return nil, nil
	case "ddr":
	case "cxl":
		nCXL, placement = 1, cxl.PolicyPlacement()
	default:
		return nil, fmt.Errorf("unknown offload mode %q (want none, ddr, or cxl)", mode)
	}
	// ctx 256 keeps the KV cache heavier than one layer, so the planner
	// pins a layer yet leaves KV host-side (the streaming regime).
	const pinned, ctx = 1, 256
	plan, err := offload.NewPlan(offload.Config{
		System:    offload.TinySystem(cfg, 1, ctx, pinned, nCXL),
		Model:     cfg,
		Batch:     1,
		Context:   ctx,
		Placement: placement,
	})
	if err != nil {
		return nil, err
	}
	return offload.NewHost(plan, pol)
}

// buildGateway assembles the live serving stack: a random-weight
// functional model, an executor with the chosen offloading policy
// (optionally hosted by the tiered-memory runtime), and the gateway in
// front of them.
func buildGateway(modelName, policyName, offloadMode string, maxBatch, queueDepth, kvTokens int, prefixCache bool, prefillChunk, specGamma, specDraftLayers int, quantTier string, quantSparsity float64, quantGroup int, seed int64) (*gateway.Gateway, *offload.Host, string, error) {
	cfg, err := liveModelConfig(modelName)
	if err != nil {
		return nil, nil, "", err
	}
	pol, err := parsePolicy(policyName)
	if err != nil {
		return nil, nil, "", err
	}
	m, err := llm.NewRandom(cfg, seed)
	if err != nil {
		return nil, nil, "", err
	}
	host, err := buildOffloadHost(cfg, offloadMode, pol)
	if err != nil {
		return nil, nil, "", err
	}
	var budget units.Bytes
	if kvTokens > 0 {
		budget = cfg.KVBytes(1, kvTokens)
	}
	exec := llm.NewExecutor(m, pol)
	if host != nil { // interface-typed field: a nil *Host is not a nil MemHost
		exec.Mem = host
	}
	g, err := gateway.New(exec, gateway.Config{
		MaxBatch:        maxBatch,
		QueueDepth:      queueDepth,
		KVBudget:        budget,
		KVBlockTokens:   4,
		Offload:         host,
		PrefixCache:     prefixCache,
		PrefillChunk:    prefillChunk,
		SpecGamma:       specGamma,
		SpecDraftLayers: specDraftLayers,
		Quant:           quantTier,
		QuantSparsity:   quantSparsity,
		QuantGroup:      quantGroup,
	})
	if err != nil {
		if host != nil {
			host.Close()
		}
		return nil, nil, "", err
	}
	desc := fmt.Sprintf("%s model, %s policy, max batch %d, queue %d", modelName, policyName, maxBatch, queueDepth)
	if kvTokens > 0 {
		desc += fmt.Sprintf(", KV pool %d tokens", kvTokens)
	}
	if prefixCache {
		desc += ", prefix cache"
	}
	if prefillChunk > 0 {
		desc += fmt.Sprintf(", prefill chunk %d", prefillChunk)
	}
	if specGamma > 0 {
		desc += fmt.Sprintf(", spec γ=%d (%d-layer draft)", specGamma, specDraftLayers)
	}
	if tier := g.Snapshot().QuantTier; tier != "dense" {
		desc += fmt.Sprintf(", quant %s", tier)
	}
	if host != nil {
		desc += fmt.Sprintf(", offload %s (%s)", strings.ToLower(offloadMode), host.Plan())
	}
	return g, host, desc, nil
}

// runLive serves the gateway over HTTP until SIGINT/SIGTERM, then drains
// within the budget and dumps final stats.
func runLive(g *gateway.Gateway, desc, addr string, drainSecs float64) error {
	srv := &http.Server{Addr: addr, Handler: g.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("lia-serve: live gateway on %s (%s)\n", addr, desc)
	fmt.Printf("  try: curl -s localhost%s/v1/generate -d '{\"prompt\":[5,17,42],\"max_new_tokens\":8}'\n", portOf(addr))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("lia-serve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(drainSecs*float64(time.Second)))
	defer cancel()
	gwErr := g.Shutdown(drainCtx)
	_ = srv.Shutdown(drainCtx)
	dumpStats(g.Snapshot())
	if gwErr != nil {
		return fmt.Errorf("drain aborted: %w", gwErr)
	}
	return nil
}

func dumpStats(s gateway.Snapshot) {
	fmt.Printf("  served      : %d requests, %d tokens (%d preemptions)\n", s.Completed, s.Tokens, s.Preempted)
	fmt.Printf("  refused     : %d shed, %d rejected, %d canceled\n", s.Shed, s.Rejected, s.Canceled)
	fmt.Printf("  queue wait  : mean %v, p99 ≤%v\n", s.QueueWaitMean, s.QueueWaitP99)
	fmt.Printf("  ttft        : mean %v, p50 ≤%v, p99 ≤%v\n", s.TTFTMean, s.TTFTP50, s.TTFTP99)
	fmt.Printf("  decode step : mean %v\n", s.PerTokenMean)
}

func portOf(addr string) string {
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[i:]
	}
	return ":" + addr
}

// benchReport is the BENCH_gateway.json measurement payload. Percentiles
// are exact (sorted client-side samples), not histogram bucket bounds.
type benchReport struct {
	Config struct {
		Description string  `json:"description"`
		Clients     int     `json:"clients"`
		Seconds     float64 `json:"seconds"`
		TokensPerOp int     `json:"tokens_per_request"`
	} `json:"config"`
	Completed        int     `json:"completed"`
	Shed             uint64  `json:"shed"`
	Preempted        uint64  `json:"preempted"`
	SustainedReqS    float64 `json:"sustained_req_per_s"`
	TokensPerS       float64 `json:"tokens_per_s"`
	TTFTP50Ms        float64 `json:"ttft_p50_ms"`
	TTFTP99Ms        float64 `json:"ttft_p99_ms"`
	TotalP50Ms       float64 `json:"total_p50_ms"`
	TotalP99Ms       float64 `json:"total_p99_ms"`
	QueueMeanMs      float64 `json:"queue_wait_mean_ms"`
	DecodeStepMeanMs float64 `json:"decode_step_mean_ms"`
}

// runBench drives the in-process gateway with closed-loop clients for a
// fixed window and prints exact client-side percentiles as JSON.
func runBench(g *gateway.Gateway, desc string, clients int, seconds float64, tokens int, seed int64) error {
	type sample struct{ ttft, total time.Duration }
	var (
		mu      sync.Mutex
		samples []sample
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for time.Now().Before(deadline) {
				prompt := make([]int, 4+rng.Intn(8))
				for i := range prompt {
					prompt[i] = rng.Intn(64)
				}
				res, err := g.Submit(context.Background(), prompt, tokens)
				if err != nil {
					if errors.Is(err, gateway.ErrOverloaded) {
						time.Sleep(time.Millisecond) // closed loop backs off on shed
						continue
					}
					return
				}
				mu.Lock()
				samples = append(samples, sample{ttft: res.TTFT, total: res.Total})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("bench served no requests")
	}

	ttfts := make([]time.Duration, len(samples))
	totals := make([]time.Duration, len(samples))
	for i, s := range samples {
		ttfts[i], totals[i] = s.ttft, s.total
	}
	sort.Slice(ttfts, func(i, j int) bool { return ttfts[i] < ttfts[j] })
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })

	snap := g.Snapshot()
	var rep benchReport
	rep.Config.Description = desc
	rep.Config.Clients = clients
	rep.Config.Seconds = seconds
	rep.Config.TokensPerOp = tokens
	rep.Completed = len(samples)
	rep.Shed = snap.Shed
	rep.Preempted = snap.Preempted
	rep.SustainedReqS = float64(len(samples)) / elapsed.Seconds()
	rep.TokensPerS = float64(len(samples)*tokens) / elapsed.Seconds()
	rep.TTFTP50Ms = ms(pctDur(ttfts, 0.50))
	rep.TTFTP99Ms = ms(pctDur(ttfts, 0.99))
	rep.TotalP50Ms = ms(pctDur(totals, 0.50))
	rep.TotalP99Ms = ms(pctDur(totals, 0.99))
	rep.QueueMeanMs = ms(snap.QueueWaitMean)
	rep.DecodeStepMeanMs = ms(snap.PerTokenMean)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// offloadBenchRow is one tier configuration's measurement in
// BENCH_offload.json. Virtual times come from the host's transfer/compute
// clock (the analytic link semantics); the resident baseline has none.
type offloadBenchRow struct {
	Name         string `json:"name"`
	PinnedLayers int    `json:"pinned_layers,omitempty"`
	// VirtualDecodeMs is the last decode pass's virtual makespan; the
	// stream and compute columns show how much of it each side occupies
	// (they overlap under double buffering).
	VirtualDecodeMs  float64 `json:"virtual_decode_ms,omitempty"`
	VirtualStreamMs  float64 `json:"virtual_stream_ms,omitempty"`
	VirtualComputeMs float64 `json:"virtual_compute_ms,omitempty"`
	LinkTransfers    uint64  `json:"link_transfers,omitempty"`
	KVSpills         uint64  `json:"kv_spills,omitempty"`
	KVEvictions      uint64  `json:"kv_evictions,omitempty"`
	WallDecodeUs     float64 `json:"wall_decode_us_per_token"`
}

// offloadBenchReport is the BENCH_offload.json payload: the same
// generation on the same weights, resident versus tier-hosted.
type offloadBenchReport struct {
	Model        string            `json:"model"`
	Tokens       int               `json:"tokens"`
	BitIdentical bool              `json:"bit_identical"`
	Configs      []offloadBenchRow `json:"configs"`
}

// runOffloadBench generates the same stream under three hosting
// configurations — resident, DDR-streamed, CXL-streamed — and prints the
// wall-clock and virtual-clock decode latencies as JSON. The token
// streams must agree bit-for-bit; the report records that they did.
func runOffloadBench(modelName string, tokens int, seed int64) error {
	cfg, err := liveModelConfig(modelName)
	if err != nil {
		return err
	}
	if tokens < 2 {
		return fmt.Errorf("offload bench needs at least 2 tokens, got %d", tokens)
	}
	prompt := []int{5, 17, 42, 9, 63}
	rep := offloadBenchReport{Model: cfg.Name, Tokens: tokens, BitIdentical: true}
	var first []int
	for _, mode := range []string{"none", "ddr", "cxl"} {
		m, err := llm.NewRandom(cfg, seed)
		if err != nil {
			return err
		}
		e := llm.NewExecutor(m, core.FullGPU)
		host, err := buildOffloadHost(cfg, mode, core.FullGPU)
		if err != nil {
			return err
		}
		if host != nil {
			e.Mem = host
		}
		start := time.Now()
		out, err := e.Generate(prompt, tokens)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		if first == nil {
			first = out
		} else if !equalTokens(first, out) {
			rep.BitIdentical = false
		}
		row := offloadBenchRow{
			Name:         "resident",
			WallDecodeUs: float64(wall.Microseconds()) / float64(tokens),
		}
		if host != nil {
			snap := host.Snapshot()
			row.Name = mode + "-streamed"
			row.PinnedLayers = host.Plan().GPU.PinnedLayers
			row.VirtualDecodeMs = secMs(snap.LastPass.Makespan)
			row.VirtualStreamMs = secMs(snap.LastPass.Stream)
			row.VirtualComputeMs = secMs(snap.LastPass.Compute)
			row.LinkTransfers = snap.Xfer.Transfers
			row.KVSpills = snap.KVSpills
			row.KVEvictions = snap.KVEvictions
			host.Close()
		}
		rep.Configs = append(rep.Configs, row)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func secMs(s units.Seconds) float64 { return float64(s) * 1e3 }

// quantBenchRow is one weight tier's measurement in BENCH_quant.json.
// Accuracy is reported against the dense tier on the same random
// weights: prefill-logit max-abs error plus the fraction of greedy
// tokens that agree with the dense stream. Sparse serves pruned weights
// (a different model by construction) and int4lut a quantized one, so
// neither is expected to agree perfectly — the rows quantify the
// accuracy-vs-footprint-vs-speed trade the tier buys.
type quantBenchRow struct {
	Tier             string  `json:"tier"`
	WeightBytes      int64   `json:"weight_bytes"`
	WallDecodeUs     float64 `json:"wall_us_per_token"`
	TokensPerSec     float64 `json:"tokens_per_sec"`
	AMXCycles        uint64  `json:"amx_cycles"`
	PrefillMaxAbsErr float64 `json:"prefill_max_abs_err"`
	TokenAgreement   float64 `json:"token_agreement"`
	BlockSparsity    float64 `json:"block_sparsity,omitempty"`
}

// quantBenchReport is the BENCH_quant.json payload: the same prompt
// decoded greedily under the dense, sparse, and int4lut weight tiers.
type quantBenchReport struct {
	Model    string          `json:"model"`
	Policy   string          `json:"policy"`
	Tokens   int             `json:"tokens"`
	Sparsity float64         `json:"sparsity"`
	Group    int             `json:"group"`
	Tiers    []quantBenchRow `json:"tiers"`
}

// runQuantBench decodes the same stream under the three weight tiers
// and prints per-tier decode speed, serving footprint, and accuracy
// against the dense baseline as JSON.
func runQuantBench(modelName, policyName string, tokens int, sparsity float64, group int, seed int64) error {
	cfg, err := liveModelConfig(modelName)
	if err != nil {
		return err
	}
	pol, err := parsePolicy(policyName)
	if err != nil {
		return err
	}
	if tokens < 2 {
		return fmt.Errorf("quant bench needs at least 2 tokens, got %d", tokens)
	}
	if sparsity <= 0 {
		sparsity = 0.5
	}
	if group <= 0 {
		group = quant.DefaultGroupINT4
	}
	prompt := []int{5, 17, 42, 9, 63}
	rep := quantBenchReport{Model: cfg.Name, Policy: strings.ToLower(policyName), Tokens: tokens, Sparsity: sparsity, Group: group}

	var denseLogits tensor.Matrix
	var denseTokens []int
	for _, tier := range []string{"dense", "sparse", "int4lut"} {
		m, err := llm.NewRandom(cfg, seed)
		if err != nil {
			return err
		}
		e := llm.NewExecutor(m, pol)
		switch tier {
		case "sparse":
			e.EnableSparse(sparsity)
		case "int4lut":
			e.EnableINT4LUT(group)
		}
		logits, cache, err := e.Prefill(prompt)
		if err != nil {
			return err
		}
		e.RetireCache(cache)
		e.Stats = llm.Stats{}
		start := time.Now()
		out, err := e.Generate(prompt, tokens)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		if tier == "dense" {
			denseLogits, denseTokens = logits, out
		}
		agree := 0
		for i := range out {
			if out[i] == denseTokens[i] {
				agree++
			}
		}
		rep.Tiers = append(rep.Tiers, quantBenchRow{
			Tier:             e.QuantTier(),
			WeightBytes:      e.WeightFootprint(),
			WallDecodeUs:     float64(wall.Microseconds()) / float64(tokens),
			TokensPerSec:     float64(tokens) / wall.Seconds(),
			AMXCycles:        e.Stats.AMXCycles,
			PrefillMaxAbsErr: quant.MaxAbsError(logits, denseLogits),
			TokenAgreement:   float64(agree) / float64(tokens),
			BlockSparsity:    e.SparseSkipFraction(),
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// prefixBenchMode is one cache configuration's measurement in
// BENCH_prefix.json. Cold is the first replay of the trace (nothing
// cached yet), warm the second replay of the same requests; with the
// cache on the hit/miss split classifies individual requests by whether
// their prefill actually reused cached blocks.
type prefixBenchMode struct {
	Name          string  `json:"name"`
	ColdTTFTP50Ms float64 `json:"cold_ttft_p50_ms"`
	WarmTTFTP50Ms float64 `json:"warm_ttft_p50_ms"`
	HitTTFTP50Ms  float64 `json:"hit_ttft_p50_ms,omitempty"`
	MissTTFTP50Ms float64 `json:"miss_ttft_p50_ms,omitempty"`
	WallMs        float64 `json:"wall_ms"`
}

// prefixBenchReport is the BENCH_prefix.json payload: the same skewed
// hot-prefix trace served with the prefix cache off and on. The token
// streams must agree bit-for-bit; the report records that they did. The
// concurrency block is the analytic capacity question: how many mean
// sequences the same pool admits with isolated KV versus a shared
// cached prefix.
type prefixBenchReport struct {
	Config struct {
		Model           string  `json:"model"`
		RequestsPerWave int     `json:"requests_per_wave"`
		Waves           int     `json:"waves"`
		Prefixes        int     `json:"prefixes"`
		PrefixTokens    int     `json:"prefix_tokens"`
		Skew            float64 `json:"skew"`
		OutputTokens    int     `json:"output_tokens"`
		KVPoolTokens    int     `json:"kv_pool_tokens"`
	} `json:"config"`
	BitIdentical bool              `json:"bit_identical"`
	Modes        []prefixBenchMode `json:"modes"`
	PrefixStats  struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		HitTokens uint64 `json:"hit_tokens"`
		Inserts   uint64 `json:"inserts"`
		Evictions uint64 `json:"evictions"`
		Spills    uint64 `json:"spills"`
		Refetches uint64 `json:"refetches"`
	} `json:"prefix_stats"`
	Concurrency struct {
		MeanSeqTokens      int `json:"mean_seq_tokens"`
		SharedPrefixTokens int `json:"shared_prefix_tokens"`
		Isolated           int `json:"max_concurrent_sequences"`
		Shared             int `json:"max_concurrent_sequences_shared"`
	} `json:"concurrency"`
}

// p50 returns the exact nearest-rank median of the samples.
func p50(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return pctDur(s, 0.5)
}

// runPrefixBench replays the same hot-prefix trace twice (a cold wave
// and a warm wave) through two gateways — prefix cache off and on —
// checks both serve bit-identical token streams, and prints TTFT
// medians, prefix-cache counters, and the analytic concurrency gain as
// JSON. Requests go one at a time so TTFT is pure prefill cost, not
// queueing noise.
func runPrefixBench(modelName string, seed int64) error {
	cfg, err := liveModelConfig(modelName)
	if err != nil {
		return err
	}
	const (
		nRequests = 40
		waves     = 2
		kvTokens  = 512
		maxBatch  = 4
	)
	spec := trace.PrefixSpec{
		Prefixes:     4,
		PrefixTokens: 48,
		Skew:         1.2,
		Vocab:        cfg.VocabSize,
		MinSuffix:    4,
		MaxSuffix:    12,
		OutputTokens: 8,
	}
	if spec.PrefixTokens+spec.MaxSuffix+spec.OutputTokens > cfg.MaxSeqLen {
		return fmt.Errorf("prefix bench workload exceeds %s's %d-token context", cfg.Name, cfg.MaxSeqLen)
	}

	var rep prefixBenchReport
	rep.Config.Model = cfg.Name
	rep.Config.RequestsPerWave = nRequests
	rep.Config.Waves = waves
	rep.Config.Prefixes = spec.Prefixes
	rep.Config.PrefixTokens = spec.PrefixTokens
	rep.Config.Skew = spec.Skew
	rep.Config.OutputTokens = spec.OutputTokens
	rep.Config.KVPoolTokens = kvTokens
	rep.BitIdentical = true

	var first [][]int
	for _, cacheOn := range []bool{false, true} {
		// Same seed both runs: identical weights, identical requests.
		gen, err := trace.NewPrefixGenerator(spec, seed)
		if err != nil {
			return err
		}
		reqs := gen.Batch(nRequests)
		g, _, _, err := buildGateway(modelName, "partial", "none", maxBatch, 64, kvTokens, cacheOn, 0, 0, 0, "", 0, 0, seed)
		if err != nil {
			return err
		}
		row := prefixBenchMode{Name: "prefix-off"}
		if cacheOn {
			row.Name = "prefix-on"
		}
		var (
			outs      [][]int
			waveTTFT  [waves][]time.Duration
			hit, miss []time.Duration
		)
		start := time.Now()
		for w := 0; w < waves; w++ {
			for _, r := range reqs {
				var hitTokensBefore uint64
				if cacheOn {
					st, _ := g.PrefixStats()
					hitTokensBefore = st.HitTokens
				}
				res, err := g.Submit(context.Background(), r.Prompt, r.OutputLen)
				if err != nil {
					return fmt.Errorf("%s request %d: %w", row.Name, r.ID, err)
				}
				outs = append(outs, res.Tokens)
				waveTTFT[w] = append(waveTTFT[w], res.TTFT)
				if cacheOn {
					st, _ := g.PrefixStats()
					if st.HitTokens > hitTokensBefore {
						hit = append(hit, res.TTFT)
					} else {
						miss = append(miss, res.TTFT)
					}
				}
			}
		}
		row.WallMs = ms(time.Since(start))
		if cacheOn {
			st, _ := g.PrefixStats()
			rep.PrefixStats.Hits = st.Hits
			rep.PrefixStats.Misses = st.Misses
			rep.PrefixStats.HitTokens = st.HitTokens
			rep.PrefixStats.Inserts = st.Inserts
			rep.PrefixStats.Evictions = st.Evictions
			rep.PrefixStats.Spills = st.Spills
			rep.PrefixStats.Refetches = st.Refetches
			row.HitTTFTP50Ms = ms(p50(hit))
			row.MissTTFTP50Ms = ms(p50(miss))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = g.Shutdown(ctx)
		cancel()
		if err != nil {
			return err
		}
		if first == nil {
			first = outs
		} else {
			for i := range outs {
				if !equalTokens(first[i], outs[i]) {
					rep.BitIdentical = false
				}
			}
		}
		row.ColdTTFTP50Ms = ms(p50(waveTTFT[0]))
		row.WarmTTFTP50Ms = ms(p50(waveTTFT[1]))
		rep.Modes = append(rep.Modes, row)
	}

	// The analytic capacity win: a sequence's mean footprint with
	// isolated KV versus when its first PrefixTokens tokens are served
	// from a shared cached prefix.
	pool, err := kvpage.ForModel(cfg.KVBytes(1, kvTokens), 4, cfg)
	if err != nil {
		return err
	}
	gen, err := trace.NewPrefixGenerator(spec, seed)
	if err != nil {
		return err
	}
	var total int
	reqs := gen.Batch(nRequests)
	for _, r := range reqs {
		total += r.InputLen + r.OutputLen
	}
	mean := total / len(reqs)
	rep.Concurrency.MeanSeqTokens = mean
	rep.Concurrency.SharedPrefixTokens = spec.PrefixTokens
	rep.Concurrency.Isolated = pool.MaxConcurrentSequences(mean)
	rep.Concurrency.Shared = pool.MaxConcurrentSequencesShared(mean, spec.PrefixTokens)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// chunkedBenchMode is one prefill configuration's measurement in the
// chunked bench report: short-request TTFT percentiles while long
// prompts trickle (or slam) in, exact client-side values.
type chunkedBenchMode struct {
	Name          string  `json:"name"`
	ShortTTFTP50  float64 `json:"short_ttft_p50_ms"`
	ShortTTFTP99  float64 `json:"short_ttft_p99_ms"`
	LongTTFTP50   float64 `json:"long_ttft_p50_ms"`
	PrefillChunks uint64  `json:"prefill_chunks"`
	WallMs        float64 `json:"wall_ms"`
}

// chunkedBenchReport is the chunked-prefill A/B payload: the same mixed
// short/long-prompt workload served monolithic versus chunked. The token
// streams must agree bit-for-bit; the report records that they did.
type chunkedBenchReport struct {
	Config struct {
		Model        string `json:"model"`
		Waves        int    `json:"waves"`
		ShortPerWave int    `json:"short_requests_per_wave"`
		ShortPrompt  int    `json:"short_prompt_tokens"`
		LongPrompt   int    `json:"long_prompt_tokens"`
		OutputTokens int    `json:"output_tokens"`
		Chunk        int    `json:"prefill_chunk"`
	} `json:"config"`
	BitIdentical bool               `json:"bit_identical"`
	Modes        []chunkedBenchMode `json:"modes"`
}

// runChunkedBench serves an identical mixed workload — each wave slams
// one long prompt and a burst of short prompts into the queue together —
// once with monolithic prefill and once with the given chunk size, and
// prints short-request TTFT percentiles for both as JSON. Monolithic
// admission prefills the whole long prompt inside one scheduling round,
// so a short request admitted in the same round stalls behind it;
// chunking bounds that stall to one chunk per round.
func runChunkedBench(modelName string, chunk int, seed int64) error {
	cfg, err := liveModelConfig(modelName)
	if err != nil {
		return err
	}
	const (
		waves        = 6
		shortPerWave = 6
		shortPrompt  = 4
		longPrompt   = 96
		outputTokens = 8
		maxBatch     = 8
	)
	if longPrompt+outputTokens > cfg.MaxSeqLen {
		return fmt.Errorf("chunked bench workload exceeds %s's %d-token context", cfg.Name, cfg.MaxSeqLen)
	}

	var rep chunkedBenchReport
	rep.Config.Model = cfg.Name
	rep.Config.Waves = waves
	rep.Config.ShortPerWave = shortPerWave
	rep.Config.ShortPrompt = shortPrompt
	rep.Config.LongPrompt = longPrompt
	rep.Config.OutputTokens = outputTokens
	rep.Config.Chunk = chunk
	rep.BitIdentical = true

	// The same deterministic request set for both modes.
	rng := rand.New(rand.NewSource(seed))
	type request struct{ prompt []int }
	var longs, shorts []request
	for w := 0; w < waves; w++ {
		p := make([]int, longPrompt)
		for i := range p {
			p[i] = rng.Intn(cfg.VocabSize)
		}
		longs = append(longs, request{prompt: p})
		for s := 0; s < shortPerWave; s++ {
			p := make([]int, shortPrompt)
			for i := range p {
				p[i] = rng.Intn(cfg.VocabSize)
			}
			shorts = append(shorts, request{prompt: p})
		}
	}

	var first [][]int
	for _, mode := range []int{0, chunk} {
		g, _, _, err := buildGateway(modelName, "partial", "none", maxBatch, 64, 0, false, mode, 0, 0, "", 0, 0, seed)
		if err != nil {
			return err
		}
		row := chunkedBenchMode{Name: "monolithic"}
		if mode > 0 {
			row.Name = fmt.Sprintf("chunked-%d", mode)
		}
		var (
			mu         sync.Mutex
			outs       = make([][]int, len(longs)+len(shorts))
			shortTTFTs []time.Duration
			longTTFTs  []time.Duration
		)
		start := time.Now()
		for w := 0; w < waves; w++ {
			var wg sync.WaitGroup
			submit := func(slot int, prompt []int, short bool) {
				defer wg.Done()
				res, err := g.Submit(context.Background(), prompt, outputTokens)
				if err != nil {
					return
				}
				mu.Lock()
				outs[slot] = res.Tokens
				if short {
					shortTTFTs = append(shortTTFTs, res.TTFT)
				} else {
					longTTFTs = append(longTTFTs, res.TTFT)
				}
				mu.Unlock()
			}
			// The long prompt enters the queue first, the burst right behind
			// it: every short request in the wave contends with its prefill.
			wg.Add(1 + shortPerWave)
			go submit(w, longs[w].prompt, false)
			for s := 0; s < shortPerWave; s++ {
				go submit(waves+w*shortPerWave+s, shorts[w*shortPerWave+s].prompt, true)
			}
			wg.Wait()
		}
		row.WallMs = ms(time.Since(start))
		snap := g.Snapshot()
		row.PrefillChunks = snap.PrefillChunks
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = g.Shutdown(ctx)
		cancel()
		if err != nil {
			return err
		}
		if len(shortTTFTs) != waves*shortPerWave || len(longTTFTs) != waves {
			return fmt.Errorf("%s served %d short / %d long requests, want %d / %d",
				row.Name, len(shortTTFTs), len(longTTFTs), waves*shortPerWave, waves)
		}
		sort.Slice(shortTTFTs, func(i, j int) bool { return shortTTFTs[i] < shortTTFTs[j] })
		row.ShortTTFTP50 = ms(pctDur(shortTTFTs, 0.50))
		row.ShortTTFTP99 = ms(pctDur(shortTTFTs, 0.99))
		row.LongTTFTP50 = ms(p50(longTTFTs))
		if first == nil {
			first = outs
		} else {
			for i := range outs {
				if !equalTokens(first[i], outs[i]) {
					rep.BitIdentical = false
				}
			}
		}
		rep.Modes = append(rep.Modes, row)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// pctDur returns the exact nearest-rank percentile of pre-sorted samples.
func pctDur(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	idx := int(p*float64(len(d))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d) {
		idx = len(d) - 1
	}
	return d[idx]
}

func equalTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runSimulator is the original analytic serving simulator.
func runSimulator(systemName, modelName, fwName, kind string, rate float64, n, maxBatch int, maxWait float64, seed int64, continuous bool, kvBudgetGB float64) {
	sys, err := lia.SystemByName(systemName)
	if err != nil {
		fatal(err)
	}
	m, err := lia.ModelByName(modelName)
	if err != nil {
		fatal(err)
	}
	fw := engine.LIA
	switch strings.ToLower(fwName) {
	case "lia":
	case "ipex":
		fw = engine.IPEX
	case "flexgen":
		fw = engine.FlexGen
	default:
		fatal(fmt.Errorf("unknown framework %q", fwName))
	}
	family := trace.Code
	if strings.HasPrefix(strings.ToLower(kind), "conv") {
		family = trace.Conversation
	}

	gen, err := trace.NewGenerator(family, 32, m.MaxSeqLen-family.MeanOutput(), seed)
	if err != nil {
		fatal(err)
	}
	reqs, err := serve.PoissonArrivals(gen, n, rate, seed+1)
	if err != nil {
		fatal(err)
	}
	cfg := serve.Config{
		System:             sys,
		Model:              m,
		Framework:          fw,
		MaxBatch:           maxBatch,
		MaxWait:            units.Seconds(maxWait),
		AssumeHostCapacity: true,
		KVBudget:           units.Bytes(kvBudgetGB) * units.GB,
	}
	simulate := serve.Simulate
	mode := "static batching"
	if continuous {
		simulate = serve.SimulateContinuous
		mode = "continuous batching"
	}
	metrics, err := simulate(cfg, reqs)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s serving %s on %s — %d requests at %.2f req/s (%s trace, %s)\n",
		fw, m.Name, sys.Name, n, rate, family, mode)
	fmt.Printf("  completed   : %d in %v (%d batches, mean size %.1f)\n",
		metrics.Completed, metrics.Makespan, metrics.Batches, metrics.MeanBatchSize)
	fmt.Printf("  throughput  : %.1f tokens/s\n", metrics.Throughput)
	fmt.Printf("  latency     : mean %v, p50 %v, p95 %v, p99 %v\n",
		metrics.Mean, metrics.P50, metrics.P95, metrics.P99)
	fmt.Printf("  queueing    : mean %v\n", metrics.MeanQueueing)
	if metrics.Preemptions > 0 {
		fmt.Printf("  preemptions : %d (KV pool pressure)\n", metrics.Preemptions)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lia-serve:", err)
	os.Exit(1)
}
