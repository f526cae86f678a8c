package main

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/kvprefix"
	"github.com/lia-sim/lia/internal/llm"
)

// Shapes of the two live workloads. The limits are frozen: they were
// set once so that the seed commit attains between 0.95 and 0.995 on
// the reference host, and a later change is judged against them.
const (
	liveVocab     = 101 // llm.TinyConfig().VocabSize
	liveWeights   = 1   // llm.NewRandom seed of the served model
	chatMinPrompt = 4
	chatMaxPrompt = 24
	chatMaxOut    = 64
	chatRate      = 80.0 // req/s, ≈0.4 of closed-loop saturation on the reference host
	chatClients   = 8    // = MaxBatch
	chatOpenShare = 0.7  // of --seconds; the rest is the sat phase

	prefixOut         = 8
	prefixRate        = 60.0
	prefixSharedShare = 0.7

	warmupTime = 500 * time.Millisecond
)

// liveSpec is one live-gateway workload.
type liveSpec struct {
	name     string
	policy   core.Policy
	gateway  gateway.Config
	rate     float64
	generate func(n int, seed int64) ([]request, error)
	// sloTTFT and sloGap are the latency limits of slo_attainment.
	sloTTFT, sloGap time.Duration
	// openShare of the run is the open-loop phase; the remainder, if
	// any, is the closed-loop sat phase.
	openShare float64
}

var chatOpen = liveSpec{
	name:   "chat_open",
	policy: core.FullCPU,
	gateway: gateway.Config{
		MaxBatch: chatClients, QueueDepth: 64, KVBlockTokens: 4,
		KVBudget: llm.TinyConfig().KVBytes(1, 1024),
	},
	rate: chatRate, generate: chatRequests,
	sloTTFT: 6 * time.Millisecond, sloGap: 1250 * time.Microsecond,
	openShare: chatOpenShare,
}

var prefixOpen = liveSpec{
	name:   "prefix_open",
	policy: core.FullGPU,
	gateway: gateway.Config{
		MaxBatch: 8, QueueDepth: 64, KVBlockTokens: 4,
		PrefixCache: true, PrefixMaxBlocks: 256,
	},
	rate: prefixRate, generate: prefixRequests,
	sloTTFT: 9 * time.Millisecond, sloGap: 2 * time.Millisecond,
	openShare: 1,
}

// liveStack is one cold-built serving stack.
type liveStack struct {
	model *llm.Model
	gw    *gateway.Gateway
}

// build is the timed set-up: model weights, executor, one warm-up call
// that builds every prepacked weight image, and the gateway start.
func (s liveSpec) build(onEvent func(batchpolicy.Event)) (*liveStack, error) {
	m, err := llm.NewRandom(llm.TinyConfig(), liveWeights)
	if err != nil {
		return nil, err
	}
	exec := llm.NewExecutor(m, s.policy)
	if _, err := exec.Generate([]int{1, 2, 3, 4}, 2); err != nil {
		return nil, err
	}
	cfg := s.gateway
	cfg.OnEvent = onEvent
	g, err := gateway.New(exec, cfg)
	if err != nil {
		return nil, err
	}
	return &liveStack{model: m, gw: g}, nil
}

// warmup is how long a stack serves untimed closed-loop load before a
// pass is timed.
func (rc *runCtx) warmup() time.Duration {
	if rc.smoke {
		return warmupTime / 5
	}
	return warmupTime
}

func (st *liveStack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return st.gw.Shutdown(ctx)
}

// healthSample is one 1 kHz reading of Gateway.Health.
type healthSample struct {
	at                time.Duration
	running, queueLen int
	kvFree, kvTotal   int
}

// livePass is everything observed of one load pass over a fresh stack.
type livePass struct {
	stack    *liveStack
	open     []served
	openReqs []request
	sat      []served
	satReqs  []request
	satWall  time.Duration
	snap     gateway.Snapshot
	prefix   kvprefix.Stats
	// Traced passes only.
	events   []tracedEvent
	health   []healthSample
	t0       time.Time // open-phase start, origin of the pass's spans
	started  atomic.Bool
	openWall time.Duration
}

type tracedEvent struct {
	at   time.Duration
	kind batchpolicy.EventKind
}

// onEvent is the traced pass's scheduler hook. It runs on the batcher
// goroutine; events before the open phase starts are warm-up.
func (p *livePass) onEvent(e batchpolicy.Event) {
	if p.started.Load() {
		p.events = append(p.events, tracedEvent{at: time.Since(p.t0), kind: e.Kind})
	}
}

// pass warms the stack, runs the open phase and (when satFor is
// positive) the sat phase, and shuts the stack down. A traced pass also
// samples Health at 1 kHz; its stack was built with p.onEvent hooked.
func (s liveSpec) pass(rc *runCtx, p *livePass, stack *liveStack, traced bool, openReqs, satReqs, warmReqs []request, satFor time.Duration) error {
	p.stack, p.openReqs, p.satReqs = stack, openReqs, satReqs
	ctx := context.Background()
	runClosed(ctx, stack.gw, warmReqs, chatClients, rc.warmup())

	stopHealth := make(chan struct{})
	healthDone := make(chan struct{})
	p.t0 = time.Now()
	p.started.Store(true)
	if traced {
		go func() {
			defer close(healthDone)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopHealth:
					return
				case <-tick.C:
					h := stack.gw.Health()
					p.health = append(p.health, healthSample{time.Since(p.t0), h.Running, h.QueueLen, h.KVFreeBlocks, h.KVTotalBlocks})
				}
			}
		}()
	} else {
		close(healthDone)
	}
	p.open = runOpen(ctx, stack.gw, openReqs)
	p.openWall = time.Since(p.t0)
	if satFor > 0 {
		p.sat, p.satWall = runClosed(ctx, stack.gw, satReqs, chatClients, satFor)
	}
	close(stopHealth)
	<-healthDone
	if err := stack.stop(); err != nil {
		return fmt.Errorf("%s: shutdown: %w", s.name, err)
	}
	p.snap = stack.gw.Snapshot()
	p.prefix, _ = stack.gw.PrefixStats()
	return nil
}

// openSlices is how many equal slices of the open phase the end-to-end
// latencies are computed over. Each metric is taken per slice and the
// median slice reported: a host stall of a few milliseconds lands in
// one slice's tail instead of setting the whole run's p95. Five slices
// keep ≥ 200 requests in each, ten beyond every slice's p95.
const openSlices = 5

// openStats are the request-level series of an open phase, in ms.
// slice[i] is the slice that ttft[i] and e2e[i] fall in, by due time.
type openStats struct {
	ttft, e2e, lag, queue, tpot sample
	slice                       []int
	ttftHit, ttftMiss           sample
	sent, ok, failed, sloMet    int
}

// sliced returns the p-th percentile of each slice of a series.
func (st openStats) sliced(series sample, p float64) sample {
	per := make([]sample, openSlices)
	for i, v := range series {
		per[st.slice[i]] = append(per[st.slice[i]], v)
	}
	var out sample
	for _, s := range per {
		if len(s) > 0 {
			out = append(out, s.sorted().percentile(p))
		}
	}
	return out
}

func (s liveSpec) openStats(reqs []request, out []served, horizon time.Duration) openStats {
	var st openStats
	for i, o := range out {
		st.sent++
		st.lag = append(st.lag, ms(o.Lag))
		if o.Err != nil {
			st.failed++
			continue
		}
		st.ok++
		ttft := o.Lag + o.Res.TTFT
		st.ttft = append(st.ttft, ms(ttft))
		st.e2e = append(st.e2e, ms(o.Done-reqs[i].Due))
		st.slice = append(st.slice, min(int(reqs[i].Due*openSlices/horizon), openSlices-1))
		st.queue = append(st.queue, ms(o.Res.QueueWait))
		if reqs[i].Shared {
			st.ttftHit = append(st.ttftHit, ms(ttft))
		} else {
			st.ttftMiss = append(st.ttftMiss, ms(ttft))
		}
		met := ttft <= s.sloTTFT
		if n := len(o.Res.Tokens); n > 1 {
			gap := (o.Res.Total - o.Res.TTFT) / time.Duration(n-1)
			st.tpot = append(st.tpot, ms(gap))
			met = met && gap <= s.sloGap
		}
		if met {
			st.sloMet++
		}
	}
	return st
}

// checkLive is the live workloads' correctness check: every response
// has exactly the tokens asked for, checkSample of them are
// bit-identical to a fresh solo Generate, and the gateway's own
// accounting closes with nothing shed or rejected.
func (s liveSpec) checkLive(p *livePass, rep *report) {
	const checkSample = 32
	fresh := llm.NewExecutor(p.stack.model, s.policy)
	verify := func(phase string, reqs []request, out []served) {
		var okIdx []int
		for i, o := range out {
			if o.Err != nil {
				rep.fail("%s[%d]: %v", phase, i, o.Err)
				continue
			}
			if len(o.Res.Tokens) != reqs[i].N {
				rep.fail("%s[%d]: %d tokens returned, %d asked", phase, i, len(o.Res.Tokens), reqs[i].N)
				continue
			}
			okIdx = append(okIdx, i)
		}
		for k := 0; k < checkSample && k < len(okIdx); k++ {
			i := okIdx[k*len(okIdx)/min(checkSample, len(okIdx))]
			want, err := fresh.Generate(reqs[i].Prompt, reqs[i].N)
			if err != nil {
				rep.fail("%s[%d]: reference Generate: %v", phase, i, err)
				continue
			}
			if !slices.Equal(want, out[i].Res.Tokens) {
				rep.fail("%s[%d]: tokens differ from a solo Generate", phase, i)
			}
		}
	}
	verify("open", p.openReqs, p.open)
	verify("sat", p.satReqs, p.sat)
	if p.snap.Received != p.snap.Completed+p.snap.Canceled {
		rep.fail("snapshot accounting: received %d != completed %d + canceled %d", p.snap.Received, p.snap.Completed, p.snap.Canceled)
	}
	if p.snap.Shed != 0 || p.snap.Rejected != 0 {
		rep.fail("snapshot: %d shed, %d rejected (want 0)", p.snap.Shed, p.snap.Rejected)
	}
}

// lists generates the run's three request lists from the seed: the open
// schedule, the closed-loop sat list, and a warm-up list.
func (s liveSpec) lists(seed int64, openFor, satFor time.Duration) (open, sat, warm []request, genNs float64, err error) {
	n := int(s.rate*openFor.Seconds() + 0.5)
	start := time.Now()
	if open, err = s.generate(n, seed); err != nil {
		return
	}
	genNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	open = withDue(open, openFor)
	// Closed-loop lists are sized for 1000 req/s, five times what the
	// reference host sustains, so clients never run out.
	if sat, err = s.generate(int(1000*satFor.Seconds())+1, seed+1); err != nil {
		return
	}
	warm, err = s.generate(int(1000*warmupTime.Seconds()), seed+2)
	return
}

// phaseSplit divides --seconds between the open and sat phases.
func (s liveSpec) phaseSplit(total time.Duration) (openFor, satFor time.Duration) {
	openFor = time.Duration(float64(total) * s.openShare)
	return openFor, total - openFor
}

func (s liveSpec) run(rc *runCtx, rep *report) error {
	if rc.traced {
		return s.runTraced(rc, rep)
	}
	openFor, satFor := s.phaseSplit(rc.duration)
	open, sat, warm, _, err := s.lists(rc.seed, openFor, satFor)
	if err != nil {
		return err
	}
	var stack *liveStack
	setup, err := rc.timeSetups(func() (err error) {
		stack, err = s.build(nil)
		return err
	}, func() error { return stack.stop() })
	if err != nil {
		return err
	}
	rep.setSample("setup_s", setup)

	p := &livePass{}
	if err := s.pass(rc, p, stack, false, open, sat, warm, satFor); err != nil {
		return err
	}
	s.checkLive(p, rep)
	st := s.openStats(p.openReqs, p.open, openFor)
	rep.phase("open", st.sent, st.ok, st.failed)
	rep.setSample("ttft_p50_ms", st.sliced(st.ttft, 50))
	rep.setSample("ttft_p95_ms", st.sliced(st.ttft, 95))
	rep.setSample("e2e_p50_ms", st.sliced(st.e2e, 50))
	rep.set("slo_attainment", float64(st.sloMet)/float64(st.sent), st.sent)
	s.checkValidity(st, p, rep)
	if tail := supportedTail(st.ok / openSlices); tail < 95 {
		rep.invalid("%d samples a slice support only p%g, not the p95 reported", st.ok/openSlices, tail)
	}

	rep.headlineTime = median(st.sliced(st.e2e, 50)) / 1e3
	rep.headlineRate = meanTokens(p.openReqs) / rep.headlineTime
	if satFor > 0 {
		okSat, failedSat := 0, 0
		for _, o := range p.sat {
			if o.Err != nil {
				failedSat++
			} else {
				okSat++
			}
		}
		rep.phase("sat", len(p.sat), okSat, failedSat)
		rates := windowRates(p.sat, p.satWall)
		rep.setSample("sat_tokens_per_s", rates)
		rep.headlineRate = median(rates)
	}
	return nil
}

// satWindow is the slice of the sat phase one throughput sample covers.
const satWindow = 500 * time.Millisecond

// windowRates splits a closed-loop phase into satWindow slices and
// returns each full slice's output tokens per second, crediting a
// request's tokens to the slice it completed in. The phase's figure is
// the median slice, which a neighbour's burst on the shared host moves
// far less than it moves tokens ÷ wall.
func windowRates(out []served, wall time.Duration) sample {
	n := int(wall / satWindow)
	if n < 3 { // too short to slice (the smoke run): tokens ÷ wall
		total := 0
		for _, o := range out {
			total += len(o.Res.Tokens)
		}
		return sample{float64(total) / wall.Seconds()}
	}
	tokens := make([]int, n+1)
	for _, o := range out {
		if o.Err == nil {
			tokens[min(int(o.Done/satWindow), n)] += len(o.Res.Tokens)
		}
	}
	// The first slice ramps the batch up and the last is partial.
	var rates sample
	for _, t := range tokens[1:n] {
		rates = append(rates, float64(t)/satWindow.Seconds())
	}
	return rates
}

// meanTokens is the mean prompt+output token count of a request list.
func meanTokens(reqs []request) float64 {
	total := 0
	for _, r := range reqs {
		total += len(r.Prompt) + r.N
	}
	return float64(total) / float64(max(len(reqs), 1))
}

// checkValidity flags a run whose load generator, not the program,
// shaped the numbers: the dispatcher ran late, fell short of the
// schedule, or the sample is too small for the tail it reports.
func (s liveSpec) checkValidity(st openStats, p *livePass, rep *report) {
	if lag, ttft := median(st.lag), median(st.ttft); lag > 0.1*ttft {
		rep.invalid("loadgen lag p50 %.3f ms exceeds 10%% of ttft p50 %.3f ms", lag, ttft)
	}
	if offered, achieved := scheduleRates(p); achieved < 0.98*offered {
		rep.invalid("achieved %.1f req/s of %.1f scheduled", achieved, offered)
	}
}

// scheduleRates compares the schedule's own rate with the rate the
// dispatcher achieved, both over the whole open phase. (The schedule is
// a Poisson draw, so its rate differs from the nominal one by seed.)
func scheduleRates(p *livePass) (offered, achieved float64) {
	n := len(p.open)
	if n == 0 {
		return 0, 0
	}
	return float64(n) / p.openReqs[n-1].Due.Seconds(), float64(n) / p.open[n-1].Sent.Seconds()
}
