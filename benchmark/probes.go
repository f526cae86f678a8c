package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/exec"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/kvprefix"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/quant"
	"github.com/lia-sim/lia/internal/router"
	"github.com/lia-sim/lia/internal/sim"
	"github.com/lia-sim/lia/internal/tensor"
	"github.com/lia-sim/lia/internal/units"
)

// The layer probes of the traced run. Each replays the workload's own
// inputs or shapes single-threaded against one layer's exported API,
// one span per call (or per group of calls too short for the clock)
// under the probe's own span, and the per-layer metrics are medians of
// those spans. A probe times the layer alone: no batcher, no other
// request, warm caches.

const (
	probeReps  = 200 // kernel-sized calls per probe
	probeGroup = 64  // calls per span where one call is under a microsecond
)

func randomMatrix(rng *rand.Rand, rows, cols int) tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64()) * 0.02
	}
	return m
}

// kernelShapes returns the QKV and FC1 weight shapes (k, n) of a model.
func kernelShapes(cfg model.Config) map[string][2]int {
	return map[string][2]int{"qkv": {cfg.DModel, cfg.DModel + 2*cfg.KVDim()}, "fc1": {cfg.DModel, cfg.DFF}}
}

// probeAMX times the BF16 tile kernel on the model's QKV and FC1 shapes
// at 1, 8 and 64 activation rows, and a prepack. Bytes are computed
// from tensor sizes (BF16 operands, FP32 result), not measured.
func probeAMX(rc *runCtx, rep *report, cfg model.Config) error {
	rec := rc.rec
	root := rec.open("probe.amx", 0)
	defer rec.close(root)
	rng := rand.New(rand.NewSource(1))
	for name, kn := range kernelShapes(cfg) {
		k, n := kn[0], kn[1]
		w := randomMatrix(rng, k, n)
		var pre *amx.Prepacked
		var err error
		for i := 0; i < rc.reps(30); i++ {
			rec.time("amx.prepack."+name, root, 1, func() { pre, err = amx.PrepackBF16(w.Data, k, n) })
			if err != nil {
				return err
			}
		}
		for _, m := range []int{1, 8, 64} {
			shape := fmt.Sprintf("%s_m%d", name, m)
			a := randomMatrix(rng, m, k)
			dst := make([]float32, m*n)
			var cycles uint64
			for i := 0; i < rc.reps(probeReps); i++ {
				rec.time("amx."+shape, root, 1, func() { cycles, err = amx.MatmulBF16PackedInto(dst, a.Data, m, pre) })
				if err != nil {
					return err
				}
			}
			rep.setSample("amx."+shape+"_ns_p50", rec.perOp("amx."+shape, time.Nanosecond))
			rep.set("amx."+shape+"_cycles", float64(cycles), 1)
			rep.set("amx."+shape+"_bytes", float64(2*(m*k+k*n)+4*m*n), 1)
		}
	}
	rep.setSample("amx.prepack_us_p50", rec.perOp("amx.prepack.qkv", time.Microsecond))
	return nil
}

// probeAMXTiers times the compressed tiers' kernels at one activation
// row on the FC1 shape: W8A8, block-sparse BF16 and the INT4 LUT GEMV.
func probeAMXTiers(rc *runCtx, rep *report, cfg model.Config) error {
	rec := rc.rec
	root := rec.open("probe.amx_tiers", 0)
	defer rec.close(root)
	rng := rand.New(rand.NewSource(2))
	k, n := cfg.DModel, cfg.DFF
	w := randomMatrix(rng, k, n)
	x := randomMatrix(rng, 1, k)

	pre8, err := amx.PrepackINT8(quant.QuantizeWeights(w).Q, k, n)
	if err != nil {
		return err
	}
	x8 := quant.QuantizeActivations(x).Q
	pruned, _ := quant.PruneBlocks(w, 0.5)
	preSparse, err := amx.PrepackBF16Sparse(pruned.Data, k, n)
	if err != nil {
		return err
	}
	codes := make([]uint8, k*n)
	for i := range codes {
		codes[i] = uint8(rng.Intn(16))
	}
	groups := (k + quant.DefaultGroupINT4 - 1) / quant.DefaultGroupINT4
	scales := make([]float32, groups*n)
	for i := range scales {
		scales[i] = 0.01
	}
	pre4, err := amx.PrepackINT4LUT(codes, k, n, quant.DefaultGroupINT4, scales)
	if err != nil {
		return err
	}
	dst := make([]float32, n)
	for i := 0; i < rc.reps(probeReps); i++ {
		rec.time("amx.int8_m1", root, 1, func() { _, _, err = amx.MatmulINT8Packed(x8, 1, pre8) })
		if err != nil {
			return err
		}
		rec.time("amx.sparse_m1", root, 1, func() { _, err = amx.MatmulBF16PackedInto(dst, x.Data, 1, preSparse) })
		if err != nil {
			return err
		}
		rec.time("amx.int4lut_m1", root, 1, func() { _, err = pre4.GEMV4LUTInto(dst, x.Data, 1) })
		if err != nil {
			return err
		}
	}
	for _, name := range []string{"amx.int8_m1", "amx.sparse_m1", "amx.int4lut_m1"} {
		rep.setSample(name+"_ns_p50", rec.perOp(name, time.Nanosecond))
	}
	return nil
}

// probeTensor times the dense matmul on the model's shapes.
func probeTensor(rc *runCtx, rep *report, cfg model.Config) {
	rec := rc.rec
	root := rec.open("probe.tensor", 0)
	defer rec.close(root)
	rng := rand.New(rand.NewSource(3))
	shapes := kernelShapes(cfg)
	for _, p := range []struct {
		weight string
		m      int
	}{{"qkv", 1}, {"qkv", 64}, {"fc1", 64}} {
		k, n := shapes[p.weight][0], shapes[p.weight][1]
		a, b := randomMatrix(rng, p.m, k), randomMatrix(rng, k, n)
		name := fmt.Sprintf("tensor.%s_m%d", p.weight, p.m)
		for i := 0; i < rc.reps(probeReps); i++ {
			rec.time(name, root, 1, func() { tensor.MatMul(a, b) })
		}
		rep.setSample(name+"_ns_p50", rec.perOp(name, time.Nanosecond))
	}
}

// probeQuant times the set-up-side weight transforms on the FC1 weight.
func probeQuant(rc *runCtx, rep *report, cfg model.Config) error {
	rec := rc.rec
	root := rec.open("probe.quant", 0)
	defer rec.close(root)
	w := randomMatrix(rand.New(rand.NewSource(4)), cfg.DModel, cfg.DFF)
	var err error
	for i := 0; i < rc.reps(15); i++ {
		rec.time("quant.int8_quantize", root, 1, func() { quant.QuantizeWeights(w) })
		rec.time("quant.prune", root, 1, func() { quant.PruneBlocks(w, 0.5) })
		rec.time("quant.int4_quantize", root, 1, func() { _, err = quant.QuantizeINT4(w, 0) })
		if err != nil {
			return err
		}
	}
	for _, name := range []string{"quant.int8_quantize", "quant.prune", "quant.int4_quantize"} {
		rep.setSample(name+"_ms", rec.perOp(name, time.Millisecond))
	}
	return nil
}

// soloResult is one request run alone through the executor.
type soloResult struct {
	tokens []int
	took   time.Duration
}

// probeLLM runs sampled requests alone through a fresh executor — one
// llm.solo span per request with its prefill and every decode step as
// children — and a batch of eight through fused decode rounds. It
// returns the solo results by request index.
func probeLLM(rc *runCtx, rep *report, m *llm.Model, pol core.Policy, reqs []request, sampleIdx []int) (map[int]soloResult, error) {
	rec := rc.rec
	root := rec.open("probe.llm", 0)
	defer rec.close(root)
	e := llm.NewExecutor(m, pol)
	if _, err := e.Generate(reqs[0].Prompt, 2); err != nil { // build packed weights before timing
		return nil, err
	}
	e.Stats = llm.Stats{}
	solo := make(map[int]soloResult, len(sampleIdx))
	tokens := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, i := range sampleIdx {
		r := reqs[i]
		id := rec.open("llm.solo", root)
		start := time.Now()
		var logits tensor.Matrix
		var cache *llm.KVCache
		var err error
		rec.time("llm.prefill", id, len(r.Prompt), func() { logits, cache, err = e.Prefill(r.Prompt) })
		if err != nil {
			return nil, err
		}
		out := make([]int, 0, r.N)
		next := logits.ArgmaxRow(logits.Rows - 1)
		for len(out) < r.N {
			out = append(out, next)
			if len(out) == r.N {
				break
			}
			rec.time("llm.decode_step", id, 1, func() { logits, err = e.DecodeStep(cache, next) })
			if err != nil {
				return nil, err
			}
			next = logits.ArgmaxRow(0)
		}
		e.RetireCache(cache)
		solo[i] = soloResult{out, time.Since(start)}
		rec.close(id)
		tokens += r.N
	}
	runtime.ReadMemStats(&after)
	rep.setSample("llm.prefill_us_per_token_p50", rec.perOp("llm.prefill", time.Microsecond))
	rep.setSample("llm.decode_step_us_p50", rec.perOp("llm.decode_step", time.Microsecond))
	// The recorder's own spans allocate too; an untraced caller would see
	// slightly fewer.
	rep.set("llm.allocs_per_token", float64(after.Mallocs-before.Mallocs)/float64(tokens), tokens)
	rep.set("llm.bytes_per_token", float64(after.TotalAlloc-before.TotalAlloc)/float64(tokens), tokens)
	rep.set("llm.cpu_matmuls_per_token", float64(e.Stats.CPUMatmuls)/float64(tokens), tokens)
	rep.set("llm.gpu_matmuls_per_token", float64(e.Stats.GPUMatmuls)/float64(tokens), tokens)

	// Fused decode rounds at batch 8, the gateway's full batch.
	const batch, rounds = 8, 24
	ctx := context.Background()
	for group := 0; group < rc.reps(4); group++ {
		seqs := make([]*llm.Sequence, batch)
		for j := range seqs {
			var err error
			prompt := reqs[sampleIdx[(group*batch+j)%len(sampleIdx)]].Prompt
			if seqs[j], err = e.NewSequence(prompt, rounds+1); err != nil {
				return nil, err
			}
		}
		for r := 0; r < rounds; r++ {
			var err error
			rec.time("llm.fused_round_b8", root, 1, func() { err = e.StepBatchFused(ctx, seqs) })
			if err != nil {
				return nil, err
			}
		}
		for _, s := range seqs {
			s.Release()
		}
	}
	rep.setSample("llm.fused_round_us_b8_p50", rec.perOp("llm.fused_round_b8", time.Microsecond))
	return solo, nil
}

// sampleEvenly picks up to k indices spread evenly over [0, n).
func sampleEvenly(n, k int) []int {
	k = min(k, n)
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// probeBatchpolicy replays the request list through a scheduler with
// no-op execution hooks: what a scheduling round costs with the engine
// taken out.
func probeBatchpolicy(rc *runCtx, rep *report, spec liveSpec, reqs []request) error {
	rec := rc.rec
	root := rec.open("probe.batchpolicy", 0)
	defer rec.close(root)
	var pool *kvpage.Manager
	var err error
	if spec.gateway.KVBudget > 0 {
		if pool, err = kvpage.ForModel(spec.gateway.KVBudget, spec.gateway.KVBlockTokens, llm.TinyConfig()); err != nil {
			return err
		}
	}
	sched, err := batchpolicy.NewScheduler(spec.gateway.MaxBatch, pool)
	if err != nil {
		return err
	}
	items := make([]batchpolicy.Item, len(reqs))
	for i, r := range reqs {
		items[i] = batchpolicy.Item{Ref: i, PromptLen: len(r.Prompt), OutputLen: r.N}
	}
	hooks := batchpolicy.Hooks{
		Waiting:  func() []batchpolicy.Item { return items[:min(len(items), spec.gateway.QueueDepth)] },
		Consumed: func(n int) { items = items[n:] },
		Prefill:  func([]batchpolicy.Seq) error { return nil },
		Step:     func([]batchpolicy.Seq) error { return nil },
	}
	for busy := true; busy; {
		rec.time("batchpolicy.round", root, probeGroup, func() {
			for i := 0; i < probeGroup && busy && err == nil; i++ {
				busy, err = batchpolicy.Round(sched, hooks)
			}
		})
		if err != nil {
			return err
		}
	}
	rep.setSample("batchpolicy.round_ns_p50", rec.perOp("batchpolicy.round", time.Nanosecond))
	return nil
}

// probeKVPage replays the request list's block accounting: admit, one
// extend per generated token, release.
func probeKVPage(rc *runCtx, rep *report, spec liveSpec, reqs []request) error {
	rec := rc.rec
	root := rec.open("probe.kvpage", 0)
	defer rec.close(root)
	pool, err := kvpage.ForModel(spec.gateway.KVBudget, spec.gateway.KVBlockTokens, llm.TinyConfig())
	if err != nil {
		return err
	}
	for i, r := range reqs {
		rec.time("kvpage.op", root, r.N+1, func() {
			if err = pool.Admit(i, len(r.Prompt)); err != nil {
				return
			}
			for t := 1; t < r.N && err == nil; t++ {
				err = pool.Extend(i)
			}
			if err == nil {
				err = pool.Release(i)
			}
		})
		if err != nil {
			return err
		}
	}
	rep.setSample("kvpage.op_ns_p50", rec.perOp("kvpage.op", time.Nanosecond))
	return nil
}

// probeKVPrefix replays the prompt list through a standalone tree sized
// like the gateway's: look each prompt up, then insert it. The exporter
// hands back zero matrices — the probe times the tree, not the copies.
func probeKVPrefix(rc *runCtx, rep *report, spec liveSpec, reqs []request) error {
	rec := rc.rec
	root := rec.open("probe.kvprefix", 0)
	defer rec.close(root)
	cfg := llm.TinyConfig()
	tree, err := kvprefix.New(kvprefix.Config{BlockTokens: spec.gateway.KVBlockTokens, Layers: cfg.Layers, MaxBlocks: spec.gateway.PrefixMaxBlocks})
	if err != nil {
		return err
	}
	export := func(from, to int) (k, v []tensor.Matrix, err error) {
		for l := 0; l < cfg.Layers; l++ {
			k = append(k, tensor.New(to-from, cfg.KVDim()))
			v = append(v, tensor.New(to-from, cfg.KVDim()))
		}
		return k, v, nil
	}
	for _, r := range reqs {
		rec.time("kvprefix.lookup", root, 1, func() { tree.Lookup(r.Prompt) })
		rec.time("kvprefix.insert", root, 1, func() { _, err = tree.Insert(r.Prompt, export) })
		if err != nil {
			return err
		}
	}
	st := tree.Stats()
	rep.set("kvprefix.hit_token_share", float64(st.HitTokens)/float64(max(st.LookupTokens, 1)), int(st.Lookups))
	rep.setSample("kvprefix.lookup_ns_p50", rec.perOp("kvprefix.lookup", time.Nanosecond))
	rep.setSample("kvprefix.insert_ns_p50", rec.perOp("kvprefix.insert", time.Nanosecond))
	return nil
}

// probeHTTP measures what the HTTP front end adds: sequential requests
// over one keep-alive connection to an otherwise idle gateway, round
// trip minus the total_ms the gateway itself reports.
func probeHTTP(rc *runCtx, rep *report, spec liveSpec, reqs []request, sampleIdx []int) error {
	rec := rc.rec
	root := rec.open("probe.http", 0)
	defer rec.close(root)
	stack, err := spec.build(nil)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(stack.gw.Handler())
	client := srv.Client()
	var overhead sample
	post := func(r request) error {
		body, err := json.Marshal(gateway.GenerateRequest{Prompt: r.Prompt, MaxNewTokens: r.N})
		if err != nil {
			return err
		}
		var resp gateway.GenerateResponse
		var status int
		took := rec.time("gateway.http", root, 1, func() {
			var res *http.Response
			if res, err = client.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(body)); err != nil {
				return
			}
			status = res.StatusCode
			err = json.NewDecoder(res.Body).Decode(&resp)
			res.Body.Close()
		})
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("HTTP status %d", status)
		}
		overhead = append(overhead, us(took)-resp.TotalMs*1e3)
		return nil
	}
	for _, i := range sampleIdx {
		if err = post(reqs[i]); err != nil {
			break
		}
	}
	srv.Close()
	if stopErr := stack.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return fmt.Errorf("http probe: %w", err)
	}
	rep.setSample("gateway.http_overhead_us_p50", overhead[min(1, len(overhead)):]) // the first request dials
	return nil
}

// probeRouterSubmit measures what the fleet front door adds on a
// one-replica fleet: sequential Router.Submit against the replica's own
// Gateway.Submit, alternating so host noise lands on both.
func probeRouterSubmit(rc *runCtx, rep *report, spec liveSpec, reqs []request, sampleIdx []int) error {
	rec := rc.rec
	root := rec.open("probe.router", 0)
	defer rec.close(root)
	rt, err := router.New(router.Config{Seed: 1}, []router.ReplicaSpec{{
		Name: "r0", Model: llm.TinyConfig(), Seed: liveWeights, Policy: spec.policy, Gateway: spec.gateway,
	}})
	if err != nil {
		return err
	}
	direct := rt.Replica("r0")
	ctx := context.Background()
	for _, i := range sampleIdx {
		r := reqs[i]
		rec.time("router.submit", root, 1, func() { _, err = rt.Submit(ctx, r.Prompt, r.N) })
		if err != nil {
			break
		}
		rec.time("router.submit_direct", root, 1, func() { _, err = direct.Submit(ctx, r.Prompt, r.N) })
		if err != nil {
			break
		}
	}
	stopCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if stopErr := rt.Shutdown(stopCtx); err == nil {
		err = stopErr
	}
	if err != nil {
		return fmt.Errorf("router probe: %w", err)
	}
	via, plain := rec.perOp("router.submit", time.Microsecond), rec.perOp("router.submit_direct", time.Microsecond)
	diff := make(sample, len(via))
	for i := range via {
		diff[i] = via[i] - plain[i]
	}
	rep.setSample("router.submit_overhead_us_p50", diff)
	return nil
}

// probeOffload runs one sequence through executors hosted on the CXL
// and DDR tiered runtimes. The virtual-clock figures are the modelled
// §6 claim and repeat exactly; only wall_us is host time.
func probeOffload(rc *runCtx, rep *report, prompt []int) error {
	rec := rc.rec
	root := rec.open("probe.offload", 0)
	defer rec.close(root)
	const tokens = 32
	for _, tier := range []struct {
		name      string
		nCXL      int
		placement cxl.Placement
	}{{"cxl", 1, cxl.PolicyPlacement()}, {"ddr", 0, cxl.DDROnlyPlacement()}} {
		host, err := offloadHost(benchSmall, tier.nCXL, tier.placement, core.PartialCPU)
		if err != nil {
			return err
		}
		m, err := llm.NewRandom(benchSmall, liveWeights)
		if err != nil {
			host.Close()
			return err
		}
		e := llm.NewExecutor(m, core.PartialCPU)
		e.Mem = host
		if _, err = e.Generate(prompt, 2); err == nil { // packs weights
			before := host.Snapshot()
			took := rec.time("offload."+tier.name+".generate", root, tokens, func() { _, err = e.Generate(prompt, tokens) })
			after := host.Snapshot()
			virtual := seconds(after.TotalMakespan-before.TotalMakespan) * 1e3 / tokens
			rep.set("offload."+tier.name+".virtual_ms_per_token", virtual, tokens)
			if tier.name == "cxl" {
				rep.set("offload.cxl.link_transfers", float64(after.Xfer.Transfers-before.Xfer.Transfers), tokens)
				rep.set("offload.cxl.wall_us_per_token", us(took)/tokens, tokens)
				for i := 0; i < rc.reps(probeReps); i++ {
					rec.time("offload.simulate_pass", root, 1, func() { host.SimulatePass(model.Decode, 1, 64) })
				}
				rep.setSample("offload.simulate_pass_ns_p50", rec.perOp("offload.simulate_pass", time.Nanosecond))
			}
		}
		host.Close()
		if err != nil {
			return fmt.Errorf("offload probe %s: %w", tier.name, err)
		}
	}
	return nil
}

// probeAnalytic times the analytic model's building blocks on the
// flagship point (OPT-175B on SPR-A100): one optimizer call, one stage
// on the execution back-end, one task-graph run, one placement pick.
func probeAnalytic(rc *runCtx, rep *report) error {
	rec := rc.rec
	root := rec.open("probe.analytic", 0)
	defer rec.close(root)
	env := core.NewEnv(hw.SPRA100, model.OPT175B)
	plan := exec.Plan{Env: env, Policy: core.PartialCPU, Layers: model.OPT175B.Layers, Overlap: true, MiniBatches: 1}
	var err error
	for i := 0; i < rc.reps(probeReps); i++ {
		b, l := 1<<(i%8), 64<<(i%5)
		rec.time("core.optimize", root, 1, func() { core.Optimize(env, model.Decode, b, l) })
		rec.time("exec.run_stage", root, 1, func() { _, err = plan.RunStage(model.Decode, b, l) })
		if err != nil {
			return err
		}
	}
	// A 96-layer double-buffered pipeline: stream l+1 overlaps compute l.
	for i := 0; i < rc.reps(probeReps); i++ {
		s := sim.NewSchedule()
		for l := 0; l < 96; l++ {
			stream, compute := "s"+strconv.Itoa(l), "c"+strconv.Itoa(l)
			var sdeps, cdeps []string
			if l > 0 {
				sdeps = []string{"s" + strconv.Itoa(l-1)}
				cdeps = []string{"c" + strconv.Itoa(l-1)}
			}
			s.MustAdd(sim.Task{ID: stream, Resource: exec.ResPCIe, Duration: units.Seconds(1e-3), Deps: sdeps})
			s.MustAdd(sim.Task{ID: compute, Resource: exec.ResGPU, Duration: units.Seconds(2e-3), Deps: append(cdeps, stream)})
		}
		rec.time("sim.schedule_run", root, 1, func() { _, err = s.Run() })
		if err != nil {
			return err
		}
	}
	loads := make([]router.Load, 4)
	for i := range loads {
		loads[i] = router.Load{Name: strconv.Itoa(i), QueueLen: i, QueueCap: 64, Running: i, KVFreeBlocks: 100 - i, KVTotalBlocks: 128, Placeable: true}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < rc.reps(probeReps); i++ {
		rec.time("router.pick_p2c", root, probeGroup, func() {
			for j := 0; j < probeGroup; j++ {
				router.PickP2C(loads, rng.Intn)
			}
		})
	}
	rep.setSample("core.optimize_us_p50", rec.perOp("core.optimize", time.Microsecond))
	rep.setSample("exec.run_stage_us_p50", rec.perOp("exec.run_stage", time.Microsecond))
	rep.setSample("sim.schedule_run_us_p50", rec.perOp("sim.schedule_run", time.Microsecond))
	rep.setSample("router.pick_p2c_ns_p50", rec.perOp("router.pick_p2c", time.Nanosecond))
	return nil
}

// processMetrics reports the process's own footprint at the end of the
// traced run.
func processMetrics(rep *report) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("proc.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6, int(ms.NumGC))
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					rep.set("proc.peak_rss_mb", kb/1024, 1)
				}
			}
		}
	}
}

// overheadPct is the traced pass's cost relative to the untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
