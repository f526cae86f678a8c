package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/engine"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/router"
	"github.com/lia-sim/lia/internal/serve"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// Virtual per-round costs of the replayed gateway: the scenario lab's
// whole-microsecond closed forms (internal/scenario/trial.go).
const (
	replayPrefillTokenCost = 0.25e-3
	replayDecodeSeqCost    = 1e-3
	replayDecodeCtxCost    = 0.125e-3

	sweepReplayRequests = 1024
	sweepServeRequests  = 256
	sweepKVTokens       = 2048
	sweepMaxOut         = 48
)

// sweepInputs is everything one what-if iteration evaluates, generated
// from the seed.
type sweepInputs struct {
	cells []engine.Config
	// online and offline index the two cells whose simulated results are
	// reported by name; flexgen is the online point under FlexGen.
	online, offline, flexgen int

	mapEnv       core.Env
	mapBs, mapLs []int

	serveCfg  serve.Config
	serveReqs []serve.Request

	replayCfg  gateway.ReplayConfig
	replayReqs []gateway.ReplayRequest

	fleetP2C, fleetRR router.FleetConfig
	fleetReqs         []gateway.ReplayRequest
}

func buildSweepInputs(seed int64) (*sweepInputs, error) {
	in := &sweepInputs{}
	shapes := []trace.Workload{{Batch: 1, InputLen: 512, OutputLen: 32}, {Batch: 1, InputLen: 2048, OutputLen: 256},
		{Batch: 64, InputLen: 512, OutputLen: 32}, {Batch: 256, InputLen: 256, OutputLen: 32}}
	for _, fw := range []engine.Framework{engine.LIA, engine.IPEX, engine.FlexGen} {
		for _, m := range []model.Config{model.OPT30B, model.OPT175B} {
			for _, sys := range []hw.System{hw.SPRA100, hw.GNRH100} {
				for si, w := range shapes {
					if m.Name == model.OPT175B.Name && sys.Name == hw.SPRA100.Name {
						switch {
						case fw == engine.LIA && si == 0:
							in.online = len(in.cells)
						case fw == engine.LIA && si == 2:
							in.offline = len(in.cells)
						case fw == engine.FlexGen && si == 0:
							in.flexgen = len(in.cells)
						}
					}
					in.cells = append(in.cells, engine.Config{Framework: fw, System: sys, Model: m, Workload: w, AssumeHostCapacity: true})
				}
			}
		}
	}

	// Figure 9's grid.
	in.mapEnv = core.NewEnv(hw.SPRA100, model.OPT175B)
	in.mapBs = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	in.mapLs = []int{32, 64, 128, 256, 512, 1024, 2048}

	// As in the live workloads, request shapes come from mixSeed so that
	// every seed simulates the same amount of work; the seed draws the
	// arrival times and the placement sampler.
	gen, err := trace.NewGenerator(trace.Code, 32, model.OPT30B.MaxSeqLen-trace.Code.MeanOutput(), mixSeed)
	if err != nil {
		return nil, err
	}
	if in.serveReqs, err = serve.PoissonArrivals(gen, sweepServeRequests, 1, seed+1); err != nil {
		return nil, err
	}
	in.serveCfg = serve.Config{System: hw.SPRA100, Model: model.OPT30B, Framework: engine.LIA, MaxBatch: 16, AssumeHostCapacity: true}

	tiny := llm.TinyConfig()
	blend := func(mix int64) ([]trace.Request, error) {
		g, err := trace.NewBlendGenerator(0.5, 8, 48, mix)
		if err != nil {
			return nil, err
		}
		return g.Batch(sweepReplayRequests), nil
	}
	lens, err := blend(mixSeed + 2)
	if err != nil {
		return nil, err
	}
	arrivals, err := trace.NewArrivalGen(trace.ArrivalSpec{Process: trace.Poisson, Rate: 10}, seed+3)
	if err != nil {
		return nil, err
	}
	in.replayReqs = make([]gateway.ReplayRequest, len(lens))
	for i, r := range lens {
		at := arrivals.Next()
		in.replayReqs[i] = gateway.ReplayRequest{PromptLen: r.InputLen, OutputLen: min(r.OutputLen, sweepMaxOut), Arrival: at}
		if i%7 == 6 {
			in.replayReqs[i].CancelAt = at + 0.5
		}
	}
	in.replayCfg = gateway.ReplayConfig{
		MaxBatch: 8, Model: tiny, KVBudget: tiny.KVBytes(1, sweepKVTokens), KVBlockTokens: 4, QueueDepth: 64,
		Costs: &serve.StepCosts{
			Prefill: func(b, maxIn int) (units.Seconds, error) {
				return units.Seconds(float64(b*maxIn) * replayPrefillTokenCost), nil
			},
			Decode: func(b, meanCtx int) (units.Seconds, error) {
				return units.Seconds(float64(b)*replayDecodeSeqCost + float64(meanCtx)*replayDecodeCtxCost), nil
			},
		},
	}

	// The 4-replica mixed fleet of cmd/lia-serve/fleet.go under one
	// saturating burst.
	burst, err := blend(mixSeed + 4)
	if err != nil {
		return nil, err
	}
	in.fleetReqs = make([]gateway.ReplayRequest, len(burst))
	for i, r := range burst {
		in.fleetReqs[i] = gateway.ReplayRequest{PromptLen: r.InputLen, OutputLen: min(r.OutputLen, sweepMaxOut), Arrival: units.Seconds(float64(i) * 0.005)}
	}
	devices := []struct {
		label  string
		system hw.System
		tp     int
	}{{"a100", hw.SPRA100, 0}, {"h100", hw.SPRH100, 0}, {"cpu-amx", hw.System{Name: "SPR-CPU", CPU: hw.SPR}, 0}, {"a100-tp4", hw.DGXA100, 4}}
	replicas := make([]router.ReplayReplica, len(devices))
	for i, d := range devices {
		replicas[i] = router.ReplayReplica{Name: fmt.Sprintf("%s-%d", d.label, i), System: d.system, TPWays: d.tp,
			MaxBatch: 8, QueueDepth: sweepReplayRequests, KVTokens: sweepKVTokens}
	}
	in.fleetP2C = router.FleetConfig{Policy: router.PolicyP2C, Seed: seed, Model: tiny, Replicas: replicas}
	in.fleetRR = in.fleetP2C
	in.fleetRR.Policy = router.PolicyRoundRobin
	return in, nil
}

// sweepOutputs are one iteration's simulated results. Everything here is
// on the virtual clock and must repeat exactly under one seed.
type sweepOutputs struct {
	hash                    uint64
	engine                  []engine.Result
	policyMap               []core.StagePolicies
	serve                   serve.Metrics
	replay                  gateway.ReplayResult
	p2c, rr                 router.FleetResult
	cacheDistinct           int
	fleetTTFTp99, rrTTFTp99 units.Seconds
	attempted, failed       int
}

// iterate is one cold what-if run, as a CLI user pays for it: every
// process-wide cache is dropped first.
func (in *sweepInputs) iterate(rec *recorder, parent int) (*sweepOutputs, error) {
	engine.ResetRunCache()
	core.ResetOptimizeCache()
	serve.ResetStepCache()

	out := &sweepOutputs{engine: make([]engine.Result, len(in.cells))}
	var err error
	for i, c := range in.cells {
		rec.time("engine.run", parent, 1, func() { out.engine[i], err = engine.RunCached(c) })
		if err != nil {
			return nil, fmt.Errorf("engine cell %d: %w", i, err)
		}
	}
	_, out.cacheDistinct = engine.RunCacheStats()
	rec.time("core.policy_map", parent, 1, func() { out.policyMap = core.PolicyMap(in.mapEnv, in.mapBs, in.mapLs) })
	rec.time("serve.sim_continuous", parent, 1, func() { out.serve, err = serve.SimulateContinuous(in.serveCfg, in.serveReqs) })
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	rec.time("gateway.replay", parent, 1, func() { out.replay, err = gateway.Replay(in.replayCfg, in.replayReqs) })
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	rec.time("router.fleet_replay", parent, len(in.fleetReqs), func() { out.p2c, err = router.FleetReplay(in.fleetP2C, in.fleetReqs) })
	if err != nil {
		return nil, fmt.Errorf("fleet p2c: %w", err)
	}
	rec.time("router.fleet_replay", parent, len(in.fleetReqs), func() { out.rr, err = router.FleetReplay(in.fleetRR, in.fleetReqs) })
	if err != nil {
		return nil, fmt.Errorf("fleet round-robin: %w", err)
	}
	out.fleetTTFTp99 = router.Percentile(out.p2c.TTFTs, 99)
	out.rrTTFTp99 = router.Percentile(out.rr.TTFTs, 99)
	out.hash = out.fingerprint()
	out.attempted = len(in.cells) + 1 + len(in.serveReqs) + len(in.replayReqs) + 2*len(in.fleetReqs)
	return out, nil
}

// fingerprint hashes every simulated number the iteration produced.
func (o *sweepOutputs) fingerprint() uint64 {
	h := fnv.New64a()
	for _, r := range o.engine {
		fmt.Fprintf(h, "%t %v %v %v %v %v %d|", r.OOM, r.Latency, r.Throughput, r.PrefillPolicy, r.DecodePolicy, r.Energy, r.PinnedLayers)
	}
	fmt.Fprintf(h, "%v|%+v|", o.policyMap, o.serve)
	fmt.Fprintf(h, "%d %d %d %d %v %v|", o.replay.Completed, o.replay.Shed, o.replay.Canceled, o.replay.Preemptions, o.replay.Makespan, o.replay.Events)
	for _, f := range []router.FleetResult{o.p2c, o.rr} {
		fmt.Fprintf(h, "%d %d %d %d %v %v %v|", f.Completed, f.Shed, f.Canceled, f.Preemptions, f.Makespan, f.TTFTs, f.Events)
	}
	return h.Sum64()
}

// check is the what-if correctness check of one iteration against the
// first: identical simulated outputs, closed accounting on both
// replays, and no failed engine cell.
func (o *sweepOutputs) check(first *sweepOutputs, in *sweepInputs, rep *report) {
	if o.hash != first.hash {
		o.failed++
		rep.fail("simulated outputs changed between iterations (hash %x, first %x)", o.hash, first.hash)
	}
	if got := o.replay.Completed + o.replay.Shed + o.replay.Canceled; got != len(in.replayReqs) {
		o.failed++
		rep.fail("gateway.Replay accounting: %d outcomes for %d requests", got, len(in.replayReqs))
	}
	for name, f := range map[string]router.FleetResult{"p2c": o.p2c, "round-robin": o.rr} {
		if got := f.Completed + f.Shed + f.Canceled; got != len(in.fleetReqs) {
			o.failed++
			rep.fail("FleetReplay %s accounting: %d outcomes for %d requests", name, got, len(in.fleetReqs))
		}
	}
	if o.serve.Completed != len(in.serveReqs) {
		o.failed++
		rep.fail("SimulateContinuous completed %d of %d", o.serve.Completed, len(in.serveReqs))
	}
}

func runSweep(rc *runCtx, rep *report) error {
	var in *sweepInputs
	setup, err := rc.timeSetups(func() (err error) {
		in, err = buildSweepInputs(rc.seed)
		return err
	}, nil)
	if err != nil {
		return err
	}
	if rc.traced {
		return tracedSweep(rc, rep, in)
	}
	rep.setSample("setup_s", setup)

	var first *sweepOutputs
	var times sample
	attempted, failed := 0, 0
	for start := time.Now(); time.Since(start) < rc.duration; {
		t0 := time.Now()
		out, err := in.iterate(nil, 0)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		if first == nil {
			first = out
		}
		out.check(first, in, rep)
		attempted += out.attempted
		failed += out.failed
	}
	rep.phase("iterations", attempted, attempted-failed, failed)
	rep.setSample("sweep_s", times)
	rep.set("sim_fleet_ttft_p99_ms", seconds(first.fleetTTFTp99)*1e3, len(first.p2c.TTFTs))
	rep.headlineTime = median(times)
	simTokens := 0
	for _, r := range in.fleetReqs {
		simTokens += 2 * r.OutputLen
	}
	for _, r := range in.replayReqs {
		simTokens += r.OutputLen
	}
	rep.headlineRate = float64(simTokens) / rep.headlineTime
	return nil
}
