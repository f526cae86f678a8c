package main

import (
	"slices"
	"time"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/serve"
)

// The traced run (-trace 1) repeats the workload twice at a shorter
// length — once plain, once with the harness's spans and hooks on, the
// difference being trace.overhead_pct — and then runs the layer probes.
// Of --seconds, tracedShare goes to each pass; the probes are sized by
// iteration counts, not time.
const (
	tracedShare    = 0.3
	tracedSatShare = 0.15
	probeRequests  = 128 // requests replayed alone through the executor
)

// recordRequestSpans rebuilds one request span per open-phase request
// from what the harness and gateway.Result saw: due → return, with the
// dispatcher's lag, the queue wait, the wait for the first token and
// the decode as children. The request span's self time is what none of
// them covers — the return path.
func recordRequestSpans(rec *recorder, p *livePass) {
	base := p.t0.Sub(rec.origin)
	for i, o := range p.open {
		if o.Err != nil {
			continue
		}
		due, sent := base+p.openReqs[i].Due, base+o.Sent
		id := rec.add("request", 0, i+1, due, base+o.Done, 1)
		rec.add("loadgen.lag", id, i+1, due, sent, 1)
		rec.add("gateway.queue", id, i+1, sent, sent+o.Res.QueueWait, 1)
		rec.add("gateway.first_token", id, i+1, sent+o.Res.QueueWait, sent+o.Res.TTFT, 1)
		rec.add("gateway.decode", id, i+1, sent+o.Res.TTFT, sent+o.Res.Total, 1)
	}
	for _, e := range p.events {
		rec.mark("batchpolicy."+e.kind.String(), base+e.at, nil)
	}
	for _, h := range p.health {
		rec.mark("gateway.health", base+h.at, map[string]int{"running": h.running, "queue": h.queueLen, "kv_free": h.kvFree})
	}
}

func (s liveSpec) runTraced(rc *runCtx, rep *report) error {
	rec := rc.rec
	openFor := time.Duration(float64(rc.duration) * tracedShare)
	var satFor time.Duration
	if s.openShare < 1 {
		satFor = time.Duration(float64(rc.duration) * tracedSatShare)
	}
	open, sat, warm, genNs, err := s.lists(rc.seed, openFor, satFor)
	if err != nil {
		return err
	}

	plain := &livePass{}
	stack, err := s.build(nil)
	if err != nil {
		return err
	}
	if err := s.pass(rc, plain, stack, false, open, nil, warm, 0); err != nil {
		return err
	}
	p := &livePass{}
	if stack, err = s.build(p.onEvent); err != nil {
		return err
	}
	if err := s.pass(rc, p, stack, true, open, sat, warm, satFor); err != nil {
		return err
	}
	s.checkLive(p, rep)
	recordRequestSpans(rec, p)
	st, plainSt := s.openStats(p.openReqs, p.open, openFor), s.openStats(plain.openReqs, plain.open, openFor)
	rep.phase("open", st.sent, st.ok, st.failed)

	// loadgen
	lag := rec.perOp("loadgen.lag", time.Millisecond)
	rep.setSample("loadgen.lag_p50_ms", lag)
	rep.setTail("loadgen.lag_p99_ms", lag, 99)
	_, achieved := scheduleRates(p)
	rep.set("loadgen.achieved_rps", achieved, st.sent)
	rep.set("loadgen.sent", float64(st.sent), st.sent)
	rep.set("loadgen.ok", float64(st.ok), st.sent)
	rep.set("loadgen.failed", float64(st.failed), st.sent)
	rep.set("trace.gen_ns_per_request", genNs, len(open))
	s.checkValidity(st, p, rep)

	// gateway
	queue := rec.perOp("gateway.queue", time.Millisecond)
	rep.setSample("gateway.queue_wait_p50_ms", queue)
	rep.setTail("gateway.queue_wait_p95_ms", queue, 95)
	rep.setTail("gateway.ttft_p99_ms", st.ttft, 99)
	rep.setSample("gateway.tpot_open_p50_ms", st.tpot)
	rep.setTail("gateway.tpot_open_p95_ms", st.tpot, 95)
	rep.set("gateway.decode_step_mean_ms", ms(p.snap.PerTokenMean), int(p.snap.Tokens))
	rep.set("gateway.shed", float64(p.snap.Shed), 1)
	rep.set("gateway.rejected", float64(p.snap.Rejected), 1)
	rep.set("gateway.preempted", float64(p.snap.Preempted), 1)
	rep.set("gateway.reaped", float64(p.snap.Reaped), 1)
	if satFor > 0 {
		okSat, failedSat := 0, 0
		var tpot sample
		for _, o := range p.sat {
			if o.Err != nil {
				failedSat++
				continue
			}
			okSat++
			if n := len(o.Res.Tokens); n > 1 {
				tpot = append(tpot, ms((o.Res.Total-o.Res.TTFT)/time.Duration(n-1)))
			}
		}
		rep.phase("sat", len(p.sat), okSat, failedSat)
		rep.setSample("gateway.sat_tpot_p50_ms", tpot)
	}
	if s.gateway.PrefixCache {
		rep.setSample("gateway.ttft_hit_p50_ms", st.ttftHit)
		rep.setSample("gateway.ttft_miss_p50_ms", st.ttftMiss)
		rep.set("kvprefix.inserts", float64(p.prefix.Inserts), 1)
		rep.set("kvprefix.insert_skips", float64(p.prefix.InsertSkips), 1)
		rep.set("kvprefix.evictions", float64(p.prefix.Evictions), 1)
	}
	rep.set("trace.overhead_pct", overheadPct(median(plainSt.ttft), median(st.ttft)), st.ok)

	// batchpolicy and kvpage, from the scheduler's event stream and the
	// 1 kHz Health samples of the open phase.
	counts := map[batchpolicy.EventKind]int{}
	for _, e := range p.events {
		counts[e.kind]++
	}
	rep.set("batchpolicy.admits", float64(counts[batchpolicy.EventAdmit]), len(p.events))
	rep.set("batchpolicy.preempts", float64(counts[batchpolicy.EventPreempt]), len(p.events))
	rep.set("batchpolicy.completes", float64(counts[batchpolicy.EventComplete]), len(p.events))
	var running, queued sample
	freeMin := 1.0
	for _, h := range p.health {
		if h.at > p.openWall {
			break
		}
		running = append(running, float64(h.running))
		queued = append(queued, float64(h.queueLen))
		if h.kvTotal > 0 {
			freeMin = min(freeMin, float64(h.kvFree)/float64(h.kvTotal))
		}
	}
	rep.set("batchpolicy.running_mean", mean(running), len(running))
	rep.set("batchpolicy.queue_len_mean", mean(queued), len(queued))
	if s.gateway.KVBudget > 0 {
		rep.set("kvpage.free_share_min", freeMin, len(running))
	}

	// Layer probes over the same request list.
	var okIdx []int
	for i, o := range p.open {
		if o.Err == nil {
			okIdx = append(okIdx, i)
		}
	}
	var sampleIdx []int
	for _, k := range sampleEvenly(len(okIdx), rc.reps(probeRequests)) {
		sampleIdx = append(sampleIdx, okIdx[k])
	}
	if len(sampleIdx) == 0 {
		rep.fail("no request succeeded; nothing to probe")
		return nil
	}
	solo, err := probeLLM(rc, rep, p.stack.model, s.policy, p.openReqs, sampleIdx)
	if err != nil {
		return err
	}
	// The residual row: what the gateway spent on a request beyond its
	// queue wait and what the same request costs alone in the executor —
	// batching interference, scheduling and hand-offs. Negative when
	// fused batching beats the solo run. Per request, Total = queue wait +
	// solo + unattributed exactly; the three medians sum to e2e_p50 only
	// as far as medians add.
	var unattributed, soloMs sample
	for i, so := range solo {
		o := p.open[i]
		if !slices.Equal(so.tokens, o.Res.Tokens) {
			rep.fail("open[%d]: gateway tokens differ from the solo probe", i)
		}
		soloMs = append(soloMs, ms(so.took))
		unattributed = append(unattributed, ms(o.Res.Total-o.Res.QueueWait-so.took))
	}
	rep.setSample("llm.solo_request_ms_p50", soloMs)
	rep.setSample("gateway.unattributed_ms_p50", unattributed)
	if err := probeBatchpolicy(rc, rep, s, p.openReqs); err != nil {
		return err
	}
	if err := probeHTTP(rc, rep, s, p.openReqs, sampleIdx); err != nil {
		return err
	}
	if s.gateway.KVBudget > 0 {
		if err := probeKVPage(rc, rep, s, p.openReqs); err != nil {
			return err
		}
	}
	if s.gateway.PrefixCache {
		if err := probeKVPrefix(rc, rep, s, p.openReqs); err != nil {
			return err
		}
		probeTensor(rc, rep, llm.TinyConfig())
	}
	if s.policy == core.FullCPU {
		if err := probeAMX(rc, rep, llm.TinyConfig()); err != nil {
			return err
		}
		if err := probeRouterSubmit(rc, rep, s, p.openReqs, sampleIdx); err != nil {
			return err
		}
	}
	return nil
}

// tracedOffline times each tier's calls plain and then under spans, and
// probes the layers offline_tiers exercises on its own model's shapes.
func tracedOffline(rc *runCtx, rep *report, ts []*tierExec, prompts [][]int) error {
	rec := rc.rec
	calls, failed := 0, 0
	loop := func(rec *recorder, root int) (sample, [][][]int) {
		var denseTimes sample
		outputs := make([][][]int, len(ts))
		budget := time.Duration(float64(rc.duration) * tracedShare)
		for start := time.Now(); time.Since(start) < budget; {
			for i, t := range ts {
				var err error
				took := rec.time("llm.generate_batch."+t.name, root, offlineTokens, func() { outputs[i], err = t.exec.GenerateBatch(prompts, offlineOut) })
				calls++
				if err != nil {
					failed++
					rep.fail("%s: GenerateBatch: %v", t.name, err)
				}
				if i == 0 {
					denseTimes = append(denseTimes, took.Seconds())
				}
			}
		}
		return denseTimes, outputs
	}
	plain, _ := loop(nil, 0)
	root := rec.open("offline_tiers", 0)
	traced, outputs := loop(rec, root)
	rec.close(root)
	rep.phase("calls", calls, calls-failed, failed)
	checkOfflineTokens(rep, outputs)
	rep.set("trace.overhead_pct", overheadPct(median(plain), median(traced)), len(traced))

	for _, t := range ts {
		rep.set("llm.tier."+t.name+".first_call_ms", ms(t.firstCall), 1)
		rep.set("llm.tier."+t.name+".weight_bytes", float64(t.exec.WeightFootprint()), 1)
		before := t.exec.Stats.AMXCycles
		if _, err := t.exec.GenerateBatch(prompts, offlineOut); err != nil {
			return err
		}
		rep.set("llm.tier."+t.name+".amx_cycles_per_token", float64(t.exec.Stats.AMXCycles-before)/offlineTokens, offlineTokens)
	}

	// The llm probes want single requests: the batch's prompts, decoded
	// to the batch's length.
	reqs := make([]request, len(prompts))
	for i, p := range prompts {
		reqs[i] = request{Prompt: p, N: offlineOut}
	}
	if _, err := probeLLM(rc, rep, ts[0].exec.Model, core.FullCPU, reqs, sampleEvenly(len(reqs), len(reqs))); err != nil {
		return err
	}
	if err := probeAMX(rc, rep, benchSmall); err != nil {
		return err
	}
	if err := probeAMXTiers(rc, rep, benchSmall); err != nil {
		return err
	}
	probeTensor(rc, rep, benchSmall)
	if err := probeQuant(rc, rep, benchSmall); err != nil {
		return err
	}
	return probeOffload(rc, rep, prompts[0])
}

// tracedSweep times what-if iterations plain and then with a span per
// step, and probes the analytic model's building blocks.
func tracedSweep(rc *runCtx, rep *report, in *sweepInputs) error {
	rec := rc.rec
	budget := time.Duration(float64(rc.duration) * tracedShare)
	var first *sweepOutputs
	attempted, failed := 0, 0
	loop := func(rec *recorder) (sample, error) {
		var times sample
		for start := time.Now(); time.Since(start) < budget || len(times) == 0; {
			root := rec.open("whatif_sweep.iteration", 0)
			t0 := time.Now()
			out, err := in.iterate(rec, root)
			if err != nil {
				return nil, err
			}
			times = append(times, time.Since(t0).Seconds())
			rec.close(root)
			if first == nil {
				first = out
			}
			out.check(first, in, rep)
			attempted += out.attempted
			failed += out.failed
		}
		return times, nil
	}
	plain, err := loop(nil)
	if err != nil {
		return err
	}
	traced, err := loop(rec)
	if err != nil {
		return err
	}
	rep.phase("iterations", attempted, attempted-failed, failed)
	rep.set("trace.overhead_pct", overheadPct(median(plain), median(traced)), len(traced))

	// A second SimulateContinuous without dropping the caches: what a
	// long-lived process pays after the first call.
	var warm serve.Metrics
	rec.time("serve.sim_continuous_warm", 0, 1, func() { warm, err = serve.SimulateContinuous(in.serveCfg, in.serveReqs) })
	if err != nil {
		return err
	}
	if warm != first.serve {
		rep.fail("SimulateContinuous differs between cold and warm caches")
	}

	rep.setSample("engine.run_cold_ms_p50", rec.perOp("engine.run", time.Millisecond))
	rep.set("engine.cells", float64(len(in.cells)), 1)
	rep.set("engine.cache_distinct", float64(first.cacheDistinct), 1)
	rep.setSample("core.policy_map_ms", rec.perOp("core.policy_map", time.Millisecond))
	rep.setSample("serve.sim_continuous_cold_ms", rec.perOp("serve.sim_continuous", time.Millisecond))
	rep.setSample("serve.sim_continuous_warm_ms", rec.perOp("serve.sim_continuous_warm", time.Millisecond))
	rep.set("serve.sim_latency_p99_s", seconds(first.serve.P99), first.serve.Completed)
	rep.set("serve.sim_throughput_rps", float64(first.serve.Completed)/seconds(first.serve.Makespan), first.serve.Completed)
	events := len(first.replay.Events)
	replayUs := rec.perOp("gateway.replay", time.Microsecond)
	for i := range replayUs {
		replayUs[i] /= float64(max(events, 1))
	}
	rep.setSample("gateway.replay_us_per_event", replayUs)
	rep.set("gateway.replay_events", float64(events), 1)
	rep.setSample("router.fleet_replay_us_per_request", rec.perOp("router.fleet_replay", time.Microsecond))
	rep.set("router.sim_fleet_rps", first.p2c.ThroughputRPS, first.p2c.Completed)
	rep.set("router.sim_rr_ttft_p99_ms", seconds(first.rrTTFTp99)*1e3, len(first.rr.TTFTs))
	rep.set("router.sim_preemptions", float64(first.p2c.Preemptions), 1)

	online, offline, flexgen := first.engine[in.online], first.engine[in.offline], first.engine[in.flexgen]
	rep.set("engine.sim_online_latency_s", seconds(online.Latency), 1)
	rep.set("engine.sim_offline_tokens_per_s", offline.Throughput, 1)
	rep.set("engine.sim_lia_vs_flexgen", seconds(flexgen.Latency)/seconds(online.Latency), 1)
	if online.OOM || offline.OOM || flexgen.OOM {
		rep.fail("a reported engine cell is OOM: %v %v %v", online.OOMReason, offline.OOMReason, flexgen.OOMReason)
	}
	return probeAnalytic(rc, rep)
}
