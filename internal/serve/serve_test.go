package serve

import (
	"math"
	"testing"

	"github.com/lia-sim/lia/internal/engine"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

func genReqs(t *testing.T, n int, rate float64) []Request {
	t.Helper()
	gen, err := trace.NewGenerator(trace.Code, 32, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := PoissonArrivals(gen, n, rate, 10)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func baseConfig() Config {
	return Config{
		System:    hw.SPRA100,
		Model:     model.OPT30B,
		Framework: engine.LIA,
		MaxBatch:  8,
		MaxWait:   2,
	}
}

func TestPoissonArrivals(t *testing.T) {
	reqs := genReqs(t, 200, 5)
	if len(reqs) != 200 {
		t.Fatalf("%d requests", len(reqs))
	}
	var prev units.Seconds = -1
	for _, r := range reqs {
		if r.Arrival <= prev {
			t.Fatal("arrivals must be strictly increasing")
		}
		prev = r.Arrival
	}
	// Mean inter-arrival ≈ 1/rate.
	mean := float64(reqs[len(reqs)-1].Arrival) / float64(len(reqs))
	if mean < 0.15 || mean > 0.27 {
		t.Errorf("mean inter-arrival = %.3f, want ≈0.2", mean)
	}
	if _, err := PoissonArrivals(nil, 1, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestSimulateBasics(t *testing.T) {
	reqs := genReqs(t, 24, 10)
	m, err := Simulate(baseConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 24 {
		t.Errorf("completed %d/24", m.Completed)
	}
	if m.Batches < 3 || m.MeanBatchSize > 8 {
		t.Errorf("batches=%d mean size=%.1f", m.Batches, m.MeanBatchSize)
	}
	if m.Throughput <= 0 || m.Makespan <= 0 {
		t.Errorf("throughput=%v makespan=%v", m.Throughput, m.Makespan)
	}
	if !(m.P50 <= m.P95 && m.P95 <= m.P99) {
		t.Errorf("percentiles out of order: %v %v %v", m.P50, m.P95, m.P99)
	}
	if m.Mean < m.MeanQueueing {
		t.Error("total latency must include queueing")
	}
}

func TestValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxBatch = 0
	if _, err := Simulate(cfg, genReqs(t, 2, 1)); err == nil {
		t.Error("MaxBatch=0 accepted")
	}
	cfg = baseConfig()
	cfg.MaxWait = -1
	if _, err := Simulate(cfg, genReqs(t, 2, 1)); err == nil {
		t.Error("negative MaxWait accepted")
	}
	if _, err := Simulate(baseConfig(), nil); err == nil {
		t.Error("empty stream accepted")
	}
	unsorted := genReqs(t, 3, 1)
	unsorted[0].Arrival, unsorted[2].Arrival = unsorted[2].Arrival, unsorted[0].Arrival
	if _, err := Simulate(baseConfig(), unsorted); err == nil {
		t.Error("unsorted stream accepted")
	}
}

// TestBiggerBatchesRaiseThroughput: under a heavy arrival stream, a
// larger MaxBatch improves sustained throughput — the offline-inference
// motivation of §1.
func TestBiggerBatchesRaiseThroughput(t *testing.T) {
	reqs := genReqs(t, 64, 1000) // effectively all queued at once
	small := baseConfig()
	small.MaxBatch = 2
	big := baseConfig()
	big.MaxBatch = 32
	ms, err := Simulate(small, reqs)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Simulate(big, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Throughput <= ms.Throughput {
		t.Errorf("MaxBatch=32 throughput %.1f should beat MaxBatch=2's %.1f", mb.Throughput, ms.Throughput)
	}
}

// TestLightLoadLowLatency: at low arrival rates the batcher degenerates
// to near-single-request service and queueing stays below the batching
// window.
func TestLightLoadLowLatency(t *testing.T) {
	reqs := genReqs(t, 6, 0.01) // one request every ~100 s
	cfg := baseConfig()
	cfg.MaxWait = 1
	m, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanBatchSize > 1.5 {
		t.Errorf("light load should form singleton batches, got %.1f", m.MeanBatchSize)
	}
	if m.MeanQueueing > 2*cfg.MaxWait {
		t.Errorf("queueing %v exceeds 2x the batching window", m.MeanQueueing)
	}
}

// TestFullBatchLaunchesEarly: when the batch fills before the window
// closes, service starts immediately.
func TestFullBatchLaunchesEarly(t *testing.T) {
	gen, _ := trace.NewGenerator(trace.Code, 32, 64, 3)
	var reqs []Request
	for i := 0; i < 4; i++ {
		r := gen.Next()
		reqs = append(reqs, Request{Request: r, Arrival: units.Seconds(float64(i) * 0.001)})
	}
	cfg := baseConfig()
	cfg.MaxBatch = 4
	cfg.MaxWait = 1000 // absurd window; must not matter
	m, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanQueueing > 1 {
		t.Errorf("full batch should launch at once, queueing %v", m.MeanQueueing)
	}
}

func TestDeterministicSimulation(t *testing.T) {
	reqs := genReqs(t, 16, 5)
	a, err := Simulate(baseConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(baseConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("simulation must be deterministic")
	}
}

func TestContinuousBasics(t *testing.T) {
	reqs := genReqs(t, 24, 10)
	m, err := SimulateContinuous(baseConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 24 {
		t.Errorf("completed %d/24", m.Completed)
	}
	if m.GeneratedTokens <= 0 || m.Throughput <= 0 {
		t.Errorf("tokens=%d tput=%v", m.GeneratedTokens, m.Throughput)
	}
	if !(m.P50 <= m.P95 && m.P95 <= m.P99) {
		t.Error("percentiles out of order")
	}
	// Every generated token is accounted for.
	want := 0
	for _, r := range reqs {
		want += r.OutputLen
	}
	if m.GeneratedTokens != want {
		t.Errorf("generated %d tokens, want %d", m.GeneratedTokens, want)
	}
}

func TestContinuousValidation(t *testing.T) {
	if _, err := SimulateContinuous(baseConfig(), nil); err == nil {
		t.Error("empty stream accepted")
	}
	bad := baseConfig()
	bad.MaxBatch = 0
	if _, err := SimulateContinuous(bad, genReqs(t, 2, 1)); err == nil {
		t.Error("MaxBatch=0 accepted")
	}
}

// TestContinuousBeatsStaticOnMixedLengths: with highly skewed output
// lengths, static batching holds short requests hostage to the longest
// member; continuous batching retires them as they finish, cutting tail
// latency without losing throughput.
func TestContinuousBeatsStaticOnMixedLengths(t *testing.T) {
	gen, _ := trace.NewGenerator(trace.Conversation, 32, 128, 4)
	var reqs []Request
	for i := 0; i < 16; i++ {
		r := gen.Next()
		if i%4 == 0 {
			r.OutputLen = 200 // a few long generations
		} else {
			r.OutputLen = 8 // many short ones
		}
		reqs = append(reqs, Request{Request: r, Arrival: units.Seconds(float64(i) * 0.01)})
	}
	cfg := baseConfig()
	cfg.MaxBatch = 16
	cfg.MaxWait = 1

	static, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := SimulateContinuous(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cont.P50 >= static.P50 {
		t.Errorf("continuous p50 %v should beat static %v (short requests escape early)", cont.P50, static.P50)
	}
	if cont.Throughput < 0.7*static.Throughput {
		t.Errorf("continuous throughput %.1f collapsed vs static %.1f", cont.Throughput, static.Throughput)
	}
}

func TestContinuousDeterministic(t *testing.T) {
	reqs := genReqs(t, 12, 5)
	a, err := SimulateContinuous(baseConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateContinuous(baseConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("continuous simulation must be deterministic")
	}
}

// TestContinuousKVBudgetUnconstrained: a huge budget changes nothing.
func TestContinuousKVBudgetUnconstrained(t *testing.T) {
	reqs := genReqs(t, 12, 10)
	free, err := SimulateContinuous(baseConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.KVBudget = 10 * units.TB
	bounded, err := SimulateContinuous(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if free.Completed != bounded.Completed || bounded.Preemptions != 0 {
		t.Errorf("huge budget changed behaviour: %+v vs %+v", free, bounded)
	}
	if free.Makespan != bounded.Makespan {
		t.Errorf("makespans differ: %v vs %v", free.Makespan, bounded.Makespan)
	}
}

// TestContinuousKVBudgetPreempts: a pool that holds only a couple of
// sequences forces preemptions yet still completes every request.
func TestContinuousKVBudgetPreempts(t *testing.T) {
	gen, _ := trace.NewGenerator(trace.Code, 64, 128, 6)
	var reqs []Request
	for i := 0; i < 8; i++ {
		r := gen.Next()
		r.OutputLen = 64
		reqs = append(reqs, Request{Request: r, Arrival: 0})
	}
	cfg := baseConfig()
	cfg.MaxBatch = 8
	// Budget for roughly two sequences' worth of cache.
	cfg.KVBudget = model.OPT30B.KVBytes(2, 256)
	m, err := SimulateContinuous(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 8 {
		t.Errorf("completed %d/8 under preemption", m.Completed)
	}
	if m.Preemptions == 0 {
		t.Error("expected preemptions under a tight KV budget")
	}
}

// TestContinuousKVBudgetTooSmall: a budget that cannot hold one request
// errors out instead of looping.
func TestContinuousKVBudgetTooSmall(t *testing.T) {
	gen, _ := trace.NewGenerator(trace.Code, 512, 1024, 6)
	reqs := []Request{{Request: gen.Next(), Arrival: 0}}
	cfg := baseConfig()
	cfg.KVBudget = model.OPT30B.KVBytes(1, 8) // ~8 tokens of cache
	if _, err := SimulateContinuous(cfg, reqs); err == nil {
		t.Error("expected an error for an impossible budget")
	}
}

// simulateChunked serves reqs as SimulateContinuous does — one machine
// priced by cfg.stepCosts() — in batchpolicy's chunk mode.
func simulateChunked(cfg Config, reqs []Request, chunk int) (Metrics, error) {
	if err := cfg.check(reqs); err != nil {
		return Metrics{}, err
	}
	rc := cfg.machine()
	rc.PrefillChunk = chunk
	return simulateOn(rc, reqs, nil)
}

func TestChunkedBasics(t *testing.T) {
	reqs := genReqs(t, 16, 10)
	m, err := simulateChunked(baseConfig(), reqs, 128)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 16 {
		t.Errorf("completed %d/16", m.Completed)
	}
	want := 0
	for _, r := range reqs {
		want += r.OutputLen
	}
	if m.GeneratedTokens != want {
		t.Errorf("generated %d, want %d", m.GeneratedTokens, want)
	}
	if _, err := simulateChunked(baseConfig(), reqs, -1); err == nil {
		t.Error("negative chunk accepted")
	}
	if _, err := simulateChunked(baseConfig(), nil, 64); err == nil {
		t.Error("empty stream accepted")
	}

	// A 10-token prompt in chunks of 4 on the fake engine (1 ms a
	// prompt token): launches of 4, 4 and 2 tokens, and its first token
	// lands with the last one.
	mach, err := NewMachine(ReplayConfig{MaxBatch: 1, Costs: fakeCosts(), PrefillChunk: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Drive([]ReplayRequest{{PromptLen: 10, OutputLen: 2}}, []*Machine{mach}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Requests[0]; math.Abs(float64(got.FirstToken)-0.010) > 1e-12 || got.Outcome != ReplayCompleted {
		t.Errorf("chunked request %+v, want its first token at 10 ms", got)
	}
	// Its queueing ends with the first chunk, not with each.
	cfg := baseConfig()
	cfg.StepCosts = fakeCosts()
	m, err = simulateChunked(cfg, []Request{{Request: trace.Request{InputLen: 10, OutputLen: 2}}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(m.MeanQueueing)-0.004) > 1e-12 {
		t.Errorf("chunked queueing %v, want 4 ms", m.MeanQueueing)
	}
}

// TestChunkedPrefillCostsInOffloadedRegime captures a finding of this
// reproduction: Sarathi-style chunked prefill, designed for
// resident-weight serving, *hurts* an offloaded deployment — every chunk
// re-streams the full parameter set that a whole-prompt prefill would
// have amortized in one pass, so the short requests behind a giant
// prompt finish later, not earlier.
func TestChunkedPrefillCostsInOffloadedRegime(t *testing.T) {
	gen, _ := trace.NewGenerator(trace.Code, 32, 64, 2)
	var reqs []Request
	// One massive prompt first...
	big := gen.Next()
	big.InputLen = 1800
	big.OutputLen = 16
	reqs = append(reqs, Request{Request: big, Arrival: 0})
	// ...then short interactive requests.
	for i := 0; i < 6; i++ {
		r := gen.Next()
		r.InputLen = 32
		r.OutputLen = 8
		reqs = append(reqs, Request{Request: r, Arrival: units.Seconds(0.001 * float64(i+1))})
	}
	cfg := baseConfig()
	cfg.MaxBatch = 8

	whole, err := SimulateContinuous(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := simulateChunked(cfg, reqs, 256)
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Completed != whole.Completed {
		t.Fatalf("completed %d vs %d", chunked.Completed, whole.Completed)
	}
	// The offloaded regime inverts Sarathi's result: chunking re-streams
	// parameters once per chunk, so whole-prompt prefill wins.
	if chunked.P50 <= whole.P50 {
		t.Errorf("expected chunked p50 %v to trail whole-prompt %v in the offloaded regime", chunked.P50, whole.P50)
	}
	if chunked.P50 > 4*whole.P50 {
		t.Errorf("chunked overhead implausibly large: %v vs %v", chunked.P50, whole.P50)
	}
}

func TestChunkedDeterministic(t *testing.T) {
	reqs := genReqs(t, 10, 5)
	a, err := simulateChunked(baseConfig(), reqs, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulateChunked(baseConfig(), reqs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("chunked simulation must be deterministic")
	}
}
