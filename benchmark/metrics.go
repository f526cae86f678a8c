package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one metric of the benchmark. Later issues refer to
// metrics by these names; BENCHMARK.json lists the same names, units,
// directions and bounds, and a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression (0 for
	// per-layer metrics, which are not gated).
	Bound float64
	// Exact metrics are counts or virtual-clock values that must repeat
	// bit-for-bit under one seed.
	Exact bool
	// Layer is the module a per-layer metric measures ("" = end to end).
	Layer string
	// Native lists the workloads on which the metric is measured. On any
	// other workload an end-to-end metric echoes the workload's headline
	// (see report.finish) and a per-layer metric reads 0: the layer
	// did no work there.
	Native []string
}

const (
	lower  = "lower"
	higher = "higher"
)

var (
	onLive    = []string{"chat_open", "prefix_open"}
	onChat    = []string{"chat_open"}
	onPrefix  = []string{"prefix_open"}
	onOffline = []string{"offline_tiers"}
	onSweep   = []string{"whatif_sweep"}
	onModel   = []string{"chat_open", "prefix_open", "offline_tiers"}
	onAll     = []string{"chat_open", "prefix_open", "offline_tiers", "whatif_sweep"}
)

// tiers are the offline_tiers executors, in visiting order.
var tiers = []string{"dense_cpu", "dense_gpu", "int8", "sparse", "int4", "cxl"}

// tierMetric maps a tier to its end-to-end throughput metric.
func tierMetric(tier string) string {
	switch tier {
	case "dense_cpu":
		return "tokens_per_s"
	case "dense_gpu":
		return "tokens_per_s_gpu"
	}
	return "tokens_per_s_" + tier
}

// endToEnd are the 15 metrics a user of the system would see. A bound is
// per metric, not per workload, and the acceptance driver wants every
// run-to-run spread inside it, so each is set by the noisiest cell the
// metric has on the reference host (README.md has the measured
// spreads): 25%, the most the contract allows, for every timing and
// rate. Finer claims go through -compare on paired runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Native: onAll},
	{Name: "ttft_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Native: onLive},
	{Name: "ttft_p95_ms", Unit: "ms", Better: lower, Bound: 0.25, Native: onLive},
	{Name: "e2e_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Native: onLive},
	{Name: "slo_attainment", Unit: "share", Better: higher, Bound: 0.05, Native: onLive},
	{Name: "error_rate", Unit: "share", Better: lower, Bound: 0.25, Native: onAll},
	{Name: "sat_tokens_per_s", Unit: "tok/s", Better: higher, Bound: 0.25, Native: onChat},
	{Name: "tokens_per_s", Unit: "tok/s", Better: higher, Bound: 0.25, Native: onOffline},
	{Name: "tokens_per_s_gpu", Unit: "tok/s", Better: higher, Bound: 0.25, Native: onOffline},
	{Name: "tokens_per_s_int8", Unit: "tok/s", Better: higher, Bound: 0.25, Native: onOffline},
	{Name: "tokens_per_s_sparse", Unit: "tok/s", Better: higher, Bound: 0.25, Native: onOffline},
	{Name: "tokens_per_s_int4", Unit: "tok/s", Better: higher, Bound: 0.25, Native: onOffline},
	{Name: "tokens_per_s_cxl", Unit: "tok/s", Better: higher, Bound: 0.25, Native: onOffline},
	{Name: "sweep_s", Unit: "s", Better: lower, Bound: 0.25, Native: onSweep},
	{Name: "sim_fleet_ttft_p99_ms", Unit: "ms", Better: lower, Bound: 0.25, Exact: true, Native: onSweep},
}

// perLayer are the metrics of the traced run, grouped by layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(layer string, native []string, unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, Exact: exact, Layer: layer, Native: native})
		}
	}
	add("loadgen", onLive, "ms", lower, false, "loadgen.lag_p50_ms", "loadgen.lag_p99_ms")
	add("loadgen", onLive, "1/s", higher, false, "loadgen.achieved_rps")
	add("loadgen", onLive, "count", higher, true, "loadgen.sent")
	add("loadgen", onLive, "count", higher, false, "loadgen.ok")
	add("loadgen", onLive, "count", lower, false, "loadgen.failed")
	add("loadgen", onLive, "ns", lower, false, "trace.gen_ns_per_request")

	add("gateway", onLive, "ms", lower, false,
		"gateway.queue_wait_p50_ms", "gateway.queue_wait_p95_ms", "gateway.ttft_p99_ms",
		"gateway.tpot_open_p50_ms", "gateway.tpot_open_p95_ms", "gateway.decode_step_mean_ms",
		"gateway.unattributed_ms_p50")
	add("gateway", onChat, "ms", lower, false, "gateway.sat_tpot_p50_ms")
	add("gateway", onLive, "count", lower, false, "gateway.shed", "gateway.rejected", "gateway.preempted", "gateway.reaped")
	add("gateway", onPrefix, "ms", lower, false, "gateway.ttft_hit_p50_ms", "gateway.ttft_miss_p50_ms")
	add("gateway", onLive, "us", lower, false, "gateway.http_overhead_us_p50")

	add("batchpolicy", onLive, "count", higher, false, "batchpolicy.admits", "batchpolicy.completes")
	add("batchpolicy", onLive, "count", lower, false, "batchpolicy.preempts")
	add("batchpolicy", onLive, "count", higher, false, "batchpolicy.running_mean")
	add("batchpolicy", onLive, "count", lower, false, "batchpolicy.queue_len_mean")
	add("batchpolicy", onLive, "ns", lower, false, "batchpolicy.round_ns_p50")

	add("kvpage", onChat, "ns", lower, false, "kvpage.op_ns_p50")
	add("kvpage", onChat, "share", higher, false, "kvpage.free_share_min")

	add("kvprefix", onPrefix, "share", higher, true, "kvprefix.hit_token_share")
	add("kvprefix", onPrefix, "ns", lower, false, "kvprefix.lookup_ns_p50", "kvprefix.insert_ns_p50")
	add("kvprefix", onPrefix, "count", higher, false, "kvprefix.inserts")
	add("kvprefix", onPrefix, "count", lower, false, "kvprefix.insert_skips", "kvprefix.evictions")

	add("llm", onModel, "us", lower, false, "llm.prefill_us_per_token_p50", "llm.decode_step_us_p50", "llm.fused_round_us_b8_p50")
	add("llm", onLive, "ms", lower, false, "llm.solo_request_ms_p50")
	add("llm", onModel, "count", lower, false, "llm.allocs_per_token")
	add("llm", onModel, "B", lower, false, "llm.bytes_per_token")
	add("llm", onModel, "count", lower, true, "llm.cpu_matmuls_per_token", "llm.gpu_matmuls_per_token")
	for _, t := range tiers {
		add("llm", onOffline, "ms", lower, false, "llm.tier."+t+".first_call_ms")
		add("llm", onOffline, "B", lower, true, "llm.tier."+t+".weight_bytes")
		// Not exact: a pooled tile unit pays a reconfiguration when it
		// switches between BF16 and INT8 geometry, and which unit takes
		// which row block varies, so the count moves in the fifth digit.
		add("llm", onOffline, "cycles", lower, false, "llm.tier."+t+".amx_cycles_per_token")
	}

	onAMX := []string{"chat_open", "offline_tiers"}
	for _, shape := range amxShapes {
		add("amx", onAMX, "ns", lower, false, "amx."+shape+"_ns_p50")
		add("amx", onAMX, "cycles", lower, true, "amx."+shape+"_cycles")
		add("amx", onAMX, "B", lower, true, "amx."+shape+"_bytes")
	}
	add("amx", onOffline, "ns", lower, false, "amx.int8_m1_ns_p50", "amx.sparse_m1_ns_p50", "amx.int4lut_m1_ns_p50")
	add("amx", onAMX, "us", lower, false, "amx.prepack_us_p50")

	onTensor := []string{"prefix_open", "offline_tiers"}
	add("tensor", onTensor, "ns", lower, false, "tensor.qkv_m1_ns_p50", "tensor.qkv_m64_ns_p50", "tensor.fc1_m64_ns_p50")

	add("quant", onOffline, "ms", lower, false, "quant.int8_quantize_ms", "quant.prune_ms", "quant.int4_quantize_ms")

	add("offload", onOffline, "ms", lower, true, "offload.cxl.virtual_ms_per_token", "offload.ddr.virtual_ms_per_token")
	add("offload", onOffline, "count", lower, true, "offload.cxl.link_transfers")
	add("offload", onOffline, "us", lower, false, "offload.cxl.wall_us_per_token")
	add("offload", onOffline, "ns", lower, false, "offload.simulate_pass_ns_p50")

	add("router", onSweep, "ns", lower, false, "router.pick_p2c_ns_p50")
	add("router", onChat, "us", lower, false, "router.submit_overhead_us_p50")
	add("router", onSweep, "us", lower, false, "router.fleet_replay_us_per_request")
	add("router", onSweep, "1/s", higher, true, "router.sim_fleet_rps")
	add("router", onSweep, "ms", lower, true, "router.sim_rr_ttft_p99_ms")
	add("router", onSweep, "count", lower, true, "router.sim_preemptions")

	add("serve", onSweep, "ms", lower, false, "serve.sim_continuous_cold_ms", "serve.sim_continuous_warm_ms")
	add("serve", onSweep, "s", lower, true, "serve.sim_latency_p99_s")
	add("serve", onSweep, "1/s", higher, true, "serve.sim_throughput_rps")
	add("gateway", onSweep, "us", lower, false, "gateway.replay_us_per_event")
	add("gateway", onSweep, "count", higher, true, "gateway.replay_events")

	add("engine", onSweep, "ms", lower, false, "engine.run_cold_ms_p50")
	add("engine", onSweep, "count", higher, true, "engine.cells", "engine.cache_distinct")
	add("core", onSweep, "us", lower, false, "core.optimize_us_p50")
	add("core", onSweep, "ms", lower, false, "core.policy_map_ms")
	add("exec", onSweep, "us", lower, false, "exec.run_stage_us_p50")
	add("sim", onSweep, "us", lower, false, "sim.schedule_run_us_p50")
	add("engine", onSweep, "s", lower, true, "engine.sim_online_latency_s")
	add("engine", onSweep, "tok/s", higher, true, "engine.sim_offline_tokens_per_s")
	add("engine", onSweep, "ratio", higher, true, "engine.sim_lia_vs_flexgen")

	add("process", onAll, "MB", lower, false, "proc.peak_rss_mb")
	add("process", onAll, "ms", lower, false, "proc.gc_pause_total_ms")
	add("process", onAll, "%", lower, false, "trace.overhead_pct")
	return out
}

// amxShapes are the kernel probes: the served model's QKV and FC1
// weights at 1, 8 and 64 activation rows.
var amxShapes = []string{"qkv_m1", "qkv_m8", "qkv_m64", "fc1_m1", "fc1_m8", "fc1_m64"}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name, Loop, Why string
	run             func(rc *runCtx, rep *report) error
	// keepAwake asks for the idle-priority spinners of keepAwake: the
	// workload forks and joins goroutines across CPUs, so a halted CPU's
	// wake latency would set its numbers. whatif_sweep is one goroutine
	// and runs without them (a spinner on the other CPU slows it by 14%
	// on the reference host).
	keepAwake bool
}

var workloads = []workloadDef{
	{"chat_open", "open loop, Poisson 80 req/s, then closed loop, 8 clients",
		"decode-dominated live gateway on the all-AMX policy: llm fused decode rounds, amx GEMV-shaped kernels, batchpolicy rounds and kvpage extends do the work; kvprefix and tensor do none",
		chatOpen.run, true},
	{"prefix_open", "open loop, Poisson 60 req/s",
		"prefill-dominated live gateway on the dense policy with the prefix cache on: llm prefill, tensor matmul and kvprefix lookups, inserts and evictions do the work; amx does none",
		prefixOpen.run, true},
	{"offline_tiers", "closed loop, one caller, no gateway",
		"offline batch throughput of GenerateBatch on each weight tier and the CXL-hosted executor: every branch of Executor.linear and the offload host, with gateway, batchpolicy, kvpage and kvprefix bypassed",
		runOffline, true},
	{"whatif_sweep", "closed loop on the virtual clock, cold caches each iteration",
		"the analytic half (engine, core, exec, sim, serve, gateway.Replay, router.FleetReplay) as a CLI user pays for it, with llm and amx idle; host time and simulated time reported under different names",
		runSweep, false},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (see -list)", name)
}

func metricByName(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

func (m metricDef) nativeOn(workload string) bool {
	for _, w := range m.Native {
		if w == workload {
			return true
		}
	}
	return false
}

// listing renders -list: workloads, then metric names by layer.
func listing() string {
	var b strings.Builder
	b.WriteString("workloads:\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "  %-14s %s\n      %s\n", w.Name, w.Loop, w.Why)
	}
	b.WriteString("end-to-end metrics:\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "  %-24s %-6s %-6s bound %.2f  on %s\n", m.Name, m.Unit, m.Better, m.Bound, strings.Join(m.Native, ","))
	}
	b.WriteString("per-layer metrics (-trace 1):\n")
	byLayer := map[string][]string{}
	var layers []string
	for _, m := range perLayer {
		if _, ok := byLayer[m.Layer]; !ok {
			layers = append(layers, m.Layer)
		}
		byLayer[m.Layer] = append(byLayer[m.Layer], m.Name)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(&b, "  %s:\n", l)
		for _, n := range byLayer[l] {
			m, _ := metricByName(n)
			fmt.Fprintf(&b, "    %-40s %s\n", n, m.Unit)
		}
	}
	return b.String()
}
