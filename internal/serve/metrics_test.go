package serve

import (
	"math"
	"testing"
	"time"

	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// TestPercentile pins the nearest-rank definition the Metrics report
// uses: the p-quantile of n sorted samples is element ceil(p·n), with
// out-of-range ranks clamped to the ends.
func TestPercentile(t *testing.T) {
	ten := make([]units.Seconds, 10)
	for i := range ten {
		ten[i] = units.Seconds(i + 1)
	}
	cases := []struct {
		name   string
		sorted []units.Seconds
		p      float64
		want   units.Seconds
	}{
		{"empty", nil, 0.5, 0},
		{"single-p50", []units.Seconds{7}, 0.5, 7},
		{"single-p99", []units.Seconds{7}, 0.99, 7},
		{"ten-p0", ten, 0, 1},
		{"ten-p10", ten, 0.10, 1},
		{"ten-p50", ten, 0.50, 5},
		{"ten-p95", ten, 0.95, 10},
		{"ten-p99", ten, 0.99, 10},
		{"ten-p100", ten, 1.0, 10},
		{"four-p25", []units.Seconds{1, 2, 3, 4}, 0.25, 1},
		{"four-p50", []units.Seconds{1, 2, 3, 4}, 0.50, 2},
		{"four-p75", []units.Seconds{1, 2, 3, 4}, 0.75, 3},
		{"overshoot-clamps", ten, 1.5, 10},
	}
	for _, c := range cases {
		if got := Percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.sorted, c.p, got, c.want)
		}
	}
}

// TestValidateRejectsDegenerateConfigs: the fuzz target
// FuzzServeConfigValidate relies on Validate catching every shape that
// would make the simulators misbehave rather than error.
func TestValidateRejectsDegenerateConfigs(t *testing.T) {
	ok := baseConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero-batch", func(c *Config) { c.MaxBatch = 0 }},
		{"negative-batch", func(c *Config) { c.MaxBatch = -3 }},
		{"negative-wait", func(c *Config) { c.MaxWait = -1 }},
		{"nan-wait", func(c *Config) { c.MaxWait = units.Seconds(math.NaN()) }},
		{"negative-kv-budget", func(c *Config) { c.KVBudget = -1 }},
		{"negative-block-tokens", func(c *Config) { c.KVBudget = 1 << 20; c.KVBlockTokens = -16 }},
	}
	for _, c := range cases {
		cfg := baseConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// fakeCosts is the deterministic stand-in engine the differential test
// also uses: prefill charges batch·maxIn milliseconds, decode charges
// (batch+meanCtx) milliseconds. Whole-millisecond values keep every
// clock arithmetic step exact in float64.
func fakeCosts() *StepCosts {
	return &StepCosts{
		Prefill: func(b, maxIn int) (units.Seconds, error) { return units.Seconds(b*maxIn) * 1e-3, nil },
		Decode:  func(b, meanCtx int) (units.Seconds, error) { return units.Seconds(b+meanCtx) * 1e-3, nil },
	}
}

// TestContinuousMetricsExact drives SimulateContinuous with injected
// costs through a scenario small enough to compute by hand, pinning the
// whole Metrics aggregation — batch accounting, token counting,
// latency/queueing means and the percentile report — to exact values.
func TestContinuousMetricsExact(t *testing.T) {
	cfg := Config{MaxBatch: 8, StepCosts: &StepCosts{
		Prefill: func(b, maxIn int) (units.Seconds, error) { return units.Seconds(b * maxIn), nil },
		Decode:  func(b, meanCtx int) (units.Seconds, error) { return units.Seconds(b + meanCtx), nil },
	}}
	reqs := []Request{
		{Request: trace.Request{InputLen: 2, OutputLen: 2}, Arrival: 0},
		{Request: trace.Request{InputLen: 3, OutputLen: 1}, Arrival: 0},
	}
	m, err := SimulateContinuous(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: both admitted, prefill(2,3)=6 → clock 6, queueing 6 and 6.
	// Round 2: decode(2,(2+3)/2)=4 → clock 10; request 1 retires (lat 10).
	// Round 3: decode(1,3)=4 → clock 14; request 0 retires (lat 14).
	want := Metrics{
		Completed:       2,
		Makespan:        14,
		GeneratedTokens: 3,
		Throughput:      3.0 / 14.0,
		Mean:            12,
		P50:             10,
		P95:             14,
		P99:             14,
		MeanQueueing:    6,
		Batches:         3,
		MeanBatchSize:   5.0 / 3.0,
	}
	if m != want {
		t.Errorf("metrics mismatch:\n got %+v\nwant %+v", m, want)
	}
}

// TestContinuousOversizedMidTraceErrors is the regression test for the
// idle-branch hang: a request that can never fit a pool that does hold
// some blocks used to spin the simulator forever (the idle branch jumped
// the clock to an arrival time it had already reached). It must error —
// promptly — both when the impossible request leads the trace and when
// it arrives mid-trace behind work that completes fine.
func TestContinuousOversizedMidTraceErrors(t *testing.T) {
	run := func(name string, reqs []Request) {
		cfg := baseConfig()
		cfg.StepCosts = fakeCosts()
		cfg.KVBlockTokens = 4
		cfg.KVBudget = cfg.Model.KVBytes(1, 64) // 16 blocks of 4 tokens
		done := make(chan error, 1)
		go func() {
			_, err := SimulateContinuous(cfg, reqs)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: an impossible request must error", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: simulator hung on an impossible request", name)
		}
	}
	// 512 prompt tokens need 128 blocks + headroom; the pool holds 16.
	run("leading", []Request{
		{Request: trace.Request{InputLen: 512, OutputLen: 4}, Arrival: 0},
	})
	run("mid-trace", []Request{
		{Request: trace.Request{InputLen: 8, OutputLen: 4}, Arrival: 0},
		{Request: trace.Request{InputLen: 512, OutputLen: 4}, Arrival: 1},
	})
}

// TestContinuousStepCostsDeterministic: two runs over the same injected
// costs and trace produce identical Metrics (the property the
// differential test's bit-determinism requirement rests on).
func TestContinuousStepCostsDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.StepCosts = fakeCosts()
	cfg.KVBlockTokens = 4
	cfg.KVBudget = cfg.Model.KVBytes(1, 2048) // tight enough to preempt, big enough for any prompt
	reqs := genReqs(t, 40, 50)
	a, err := SimulateContinuous(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateContinuous(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
}
