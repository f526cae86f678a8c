// Command lia-serve simulates serving, serves, or emits one of the two
// byte-reproducible virtual-clock artifacts.
//
// Simulator (default): Poisson arrivals drawn from the Azure-style trace
// distributions (§7), a batcher with a size cap and waiting window
// (-continuous: iteration-level batching over a paged KV pool), and the
// chosen framework as the analytic backend. Reports per-request latency
// percentiles and sustained throughput.
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
// Every serving mode of internal/gateway is a flag on it, and all of
// them keep tokens bit-identical to the plain path unless noted:
// -offload ddr|cxl hosts weights and KV cache in the tiered-memory
// runtime (admission takes its KV budget from the KV tier, /metrics
// gains lia_offload_*); -prefix-cache reuses shared prompt prefixes
// across requests (lia_prefix_*); -spec γ decodes speculatively against
// a -spec-draft-layers deep self-draft and -prefill-chunk bounds the
// prompt tokens one scheduling round prefills; -quant selects a
// compressed weight tier — sparse (bit-identical to dense compute over
// the pruned weights), int4lut (documented tolerance), int8 — reported
// by the lia_quant_* gauges.
//
// Scenario lab (-scenario) runs the standing matrix of workload
// scenarios × chaos fault plans (internal/scenario) and prints the
// BENCH_scenario.json artifact on stdout with the SLO verdict table on
// stderr; -scenario-trials and -scenario-live rescale the matrix. Fleet
// bench (-fleet-bench) runs the fleet scale study (router.ScaleStudy)
// and prints the BENCH_fleet.json artifact.
//
// Host-time measurements of the live stack are not made here: they are
// rows of the benchmark harness (go run ./benchmark).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/lia-sim/lia"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/offload"
	"github.com/lia-sim/lia/internal/serve"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

func main() {
	var (
		// Simulator flags.
		systemName = flag.String("system", "SPR-A100", "system name (simulator)")
		modelName  = flag.String("model", "OPT-30B", "model name (simulator)")
		fwName     = flag.String("framework", "LIA", "backend framework: LIA, IPEX, FlexGen, PowerInfer, MultiGPU, ZeRO (simulator)")
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
		addr       = flag.String("addr", ":8080", "listen address (live)")
		liveModel  = flag.String("live-model", "tiny", "functional model: tiny or tiny-llama (live)")
		livePolicy = flag.String("live-policy", "partial", "offloading policy: gpu, cpu, or partial (live)")
		queueDepth = flag.Int("queue-depth", 64, "admission queue bound; excess sheds with 429 (live)")
		kvTokens   = flag.Int("live-kv-tokens", 0, "paged KV pool capacity in tokens (live; 0 = unconstrained)")
		drainSecs  = flag.Float64("drain-timeout", 30, "graceful shutdown drain budget, seconds (live)")
		offloadTo  = flag.String("offload", "none", "tiered-memory hosting of weights and KV: none, ddr, or cxl (live)")
		prefixOn   = flag.Bool("prefix-cache", false, "cross-request KV prefix reuse over the paged pool (live)")

		// Latency-ladder flags (live).
		specGamma    = flag.Int("spec", 0, "speculative decoding draft depth γ; 0 disables (live)")
		specDraft    = flag.Int("spec-draft-layers", 1, "decoder layers in the truncated self-draft model (live, with -spec)")
		prefillChunk = flag.Int("prefill-chunk", 0, "prompt tokens prefilled per scheduling round; 0 = whole prompt at admission (live)")

		// Compressed-weight tier flags (live).
		quantTier     = flag.String("quant", "", "compressed weight tier: dense, sparse, int4lut, int8, or sparse-int8 (live)")
		quantSparsity = flag.Float64("quant-sparsity", 0, "target zero tile-block fraction for the sparse tiers; 0 = default 0.5")
		quantGroup    = flag.Int("quant-group", 0, "INT4 group length for -quant int4lut; 0 = default")

		// Scenario lab flags (uses -seed; artifact JSON on stdout, verdict
		// table on stderr).
		scenarioLab    = flag.Bool("scenario", false, "run the scenario-lab experiment matrix and print the deterministic JSON artifact")
		scenarioTrials = flag.Int("scenario-trials", 0, "trials per matrix cell; 0 = experiment default (scenario)")
		scenarioLive   = flag.Int("scenario-live", -1, "live chaos legs per cell; -1 = experiment default, 0 = all trials (scenario)")

		// Fleet bench flag (uses -live-model, -seed).
		fleetBench = flag.Bool("fleet-bench", false, "replay a saturating blend burst across the fleet matrix (policy x replicas x mix) and print JSON")
	)
	flag.Parse()

	var err error
	switch {
	case *scenarioLab:
		err = runScenarioLab(*scenarioTrials, *scenarioLive, *seed)
	case *fleetBench:
		err = runFleetBench(os.Stdout, *liveModel, *seed)
	case *live:
		err = runLive(liveSpec{
			Model:    *liveModel,
			Policy:   *livePolicy,
			Offload:  *offloadTo,
			KVTokens: *kvTokens,
			Seed:     *seed,
			Gateway: gateway.Config{
				MaxBatch:        *maxBatch,
				QueueDepth:      *queueDepth,
				KVBlockTokens:   4,
				PrefixCache:     *prefixOn,
				PrefillChunk:    *prefillChunk,
				SpecGamma:       *specGamma,
				SpecDraftLayers: *specDraft,
				Quant:           *quantTier,
				QuantSparsity:   *quantSparsity,
				QuantGroup:      *quantGroup,
			},
		}, *addr, *drainSecs)
	default:
		err = runSimulator(*systemName, *modelName, *fwName, *kind, *rate, *n, *maxBatch, *maxWait, *seed, *continuous, *kvBudgetGB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lia-serve:", err)
		os.Exit(1)
	}
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

// liveSpec is everything -live builds its serving stack from: which
// functional model, offloading policy, tiered-memory hosting and weight
// seed, plus the gateway's own configuration. main fills it from the
// flags in one literal.
type liveSpec struct {
	Model   string // -live-model
	Policy  string // -live-policy
	Offload string // -offload
	// KVTokens is -live-kv-tokens: when positive, buildGateway prices it
	// into Gateway.KVBudget with the model's per-token KV bytes.
	KVTokens int
	Seed     int64 // seeds the random weights
	// Gateway is passed to gateway.New with KVBudget and Offload filled in.
	Gateway gateway.Config
}

// buildGateway assembles the live serving stack: a random-weight
// functional model, an executor with the chosen offloading policy
// (optionally hosted by the tiered-memory runtime), and the gateway in
// front of them. The caller shuts the gateway down and then closes the
// host (nil unless offloading); on error there is nothing to release.
func buildGateway(spec liveSpec) (*gateway.Gateway, *offload.Host, string, error) {
	cfg, err := liveModelConfig(spec.Model)
	if err != nil {
		return nil, nil, "", err
	}
	pol, err := parsePolicy(spec.Policy)
	if err != nil {
		return nil, nil, "", err
	}
	m, err := llm.NewRandom(cfg, spec.Seed)
	if err != nil {
		return nil, nil, "", err
	}
	host, err := buildOffloadHost(cfg, spec.Offload, pol)
	if err != nil {
		return nil, nil, "", err
	}
	gcfg := spec.Gateway
	if spec.KVTokens > 0 {
		gcfg.KVBudget = cfg.KVBytes(1, spec.KVTokens)
	}
	gcfg.Offload = host
	exec := llm.NewExecutor(m, pol)
	if host != nil { // interface-typed field: a nil *Host is not a nil MemHost
		exec.Mem = host
	}
	g, err := gateway.New(exec, gcfg)
	if err != nil {
		if host != nil {
			host.Close()
		}
		return nil, nil, "", err
	}
	desc := fmt.Sprintf("%s model, %s policy, max batch %d, queue %d", spec.Model, spec.Policy, gcfg.MaxBatch, gcfg.QueueDepth)
	if spec.KVTokens > 0 {
		desc += fmt.Sprintf(", KV pool %d tokens", spec.KVTokens)
	}
	if gcfg.PrefixCache {
		desc += ", prefix cache"
	}
	if gcfg.PrefillChunk > 0 {
		desc += fmt.Sprintf(", prefill chunk %d", gcfg.PrefillChunk)
	}
	if gcfg.SpecGamma > 0 {
		desc += fmt.Sprintf(", spec γ=%d (%d-layer draft)", gcfg.SpecGamma, gcfg.SpecDraftLayers)
	}
	if tier := g.Snapshot().QuantTier; tier != "dense" {
		desc += fmt.Sprintf(", quant %s", tier)
	}
	if host != nil {
		desc += fmt.Sprintf(", offload %s (%s)", strings.ToLower(spec.Offload), host.Plan())
	}
	return g, host, desc, nil
}

// runLive builds the serving stack and serves it over HTTP until
// SIGINT/SIGTERM, then drains within the budget and dumps final stats.
func runLive(spec liveSpec, addr string, drainSecs float64) error {
	g, host, desc, err := buildGateway(spec)
	if err != nil {
		return err
	}
	if host != nil {
		defer host.Close()
	}
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

// parseTraceFamily resolves the trace-family flag.
func parseTraceFamily(name string) (trace.Kind, error) {
	switch strings.ToLower(name) {
	case "code":
		return trace.Code, nil
	case "conversation", "conv":
		return trace.Conversation, nil
	default:
		return 0, fmt.Errorf("unknown trace family %q (want code or conversation)", name)
	}
}

// runSimulator is the analytic serving simulator.
func runSimulator(systemName, modelName, fwName, kind string, rate float64, n, maxBatch int, maxWait float64, seed int64, continuous bool, kvBudgetGB float64) error {
	sys, err := lia.SystemByName(systemName)
	if err != nil {
		return err
	}
	m, err := lia.ModelByName(modelName)
	if err != nil {
		return err
	}
	fw, err := lia.FrameworkByName(fwName)
	if err != nil {
		return err
	}
	family, err := parseTraceFamily(kind)
	if err != nil {
		return err
	}

	gen, err := trace.NewGenerator(family, 32, m.MaxSeqLen-family.MeanOutput(), seed)
	if err != nil {
		return err
	}
	reqs, err := serve.PoissonArrivals(gen, n, rate, seed+1)
	if err != nil {
		return err
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
		return err
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
	return nil
}
