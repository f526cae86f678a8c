// Package serve simulates a serving deployment in front of the inference
// engine: requests arrive over time (Poisson arrivals over the §7 trace
// distributions), a batcher groups them under a size cap and a waiting
// window, and each formed batch runs through engine.Run. The output is
// what an operator would measure — per-request latency percentiles
// (including queueing), sustained throughput, and batch-size statistics —
// connecting the paper's per-batch results to end-to-end serving
// behaviour.
package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/engine"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// Request is an inference request with an arrival time.
type Request struct {
	trace.Request
	// Arrival is when the request enters the queue.
	Arrival units.Seconds
}

// PoissonArrivals draws n requests from the generator with exponential
// inter-arrival times at the given rate (requests/second).
func PoissonArrivals(gen *trace.Generator, n int, ratePerSec float64, seed int64) ([]Request, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("serve: arrival rate must be positive, got %v", ratePerSec)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, n)
	var clock units.Seconds
	for i := range out {
		clock += units.Seconds(rng.ExpFloat64() / ratePerSec)
		out[i] = Request{Request: gen.Next(), Arrival: clock}
	}
	return out, nil
}

// Config parameterizes a serving simulation.
type Config struct {
	// System, Model and Framework select the backend.
	System    hw.System
	Model     model.Config
	Framework engine.Framework
	// MaxBatch caps the batch former.
	MaxBatch int
	// MaxWait is how long the batcher holds the first queued request
	// while gathering more.
	MaxWait units.Seconds
	// Placement is the host DDR/CXL split.
	Placement cxl.Placement
	// AssumeHostCapacity mirrors engine.Config's latency-model mode.
	AssumeHostCapacity bool
	// KVBudget, when positive, bounds the paged KV-cache pool available
	// to SimulateContinuous; admission and extension then go through the
	// kvpage allocator, and exhaustion preempts the youngest sequence.
	// Zero means unconstrained (Simulate ignores this field).
	KVBudget units.Bytes
	// KVBlockTokens is the page size in token slots (default 16).
	KVBlockTokens int
	// StepCosts, when non-nil, replaces the analytic execution back-end
	// with injected per-iteration costs in the iteration-level simulators.
	// The differential test uses this to drive SimulateContinuous and the
	// gateway's trace replay off one deterministic fake engine.
	StepCosts *StepCosts
	// OnEvent, when non-nil, observes every scheduling decision
	// (admit/preempt/complete) SimulateContinuous makes, in order.
	OnEvent func(batchpolicy.Event)
}

// StepCosts injects deterministic per-iteration costs in place of the
// analytic execution back-end. Prefill is charged per batched prefill
// launch (batch size, longest prompt); Decode per decode iteration
// (batch size, mean context length).
type StepCosts struct {
	Prefill func(batch, maxIn int) (units.Seconds, error)
	Decode  func(batch, meanCtx int) (units.Seconds, error)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: MaxBatch must be ≥1")
	}
	if c.MaxWait < 0 || math.IsNaN(float64(c.MaxWait)) {
		return fmt.Errorf("serve: MaxWait must be ≥0, got %v", c.MaxWait)
	}
	if c.KVBudget < 0 {
		return fmt.Errorf("serve: KVBudget must be ≥0, got %v", c.KVBudget)
	}
	if c.KVBudget > 0 && c.KVBlockTokens < 0 {
		return fmt.Errorf("serve: KVBlockTokens must be ≥0, got %d", c.KVBlockTokens)
	}
	return nil
}

// check is the simulators' shared precondition: a valid configuration
// over a non-empty stream sorted by arrival.
func (c Config) check(reqs []Request) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(reqs) == 0 {
		return fmt.Errorf("serve: no requests")
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			return fmt.Errorf("serve: requests not sorted by arrival")
		}
	}
	return nil
}

// Metrics summarizes a simulated run.
type Metrics struct {
	// Completed counts served requests.
	Completed int
	// Makespan is when the last batch finished.
	Makespan units.Seconds
	// GeneratedTokens counts all emitted tokens, including tokens that a
	// preempted sequence regenerates after recomputation — it measures
	// device work, not unique output.
	GeneratedTokens int
	// Throughput is GeneratedTokens / Makespan.
	Throughput float64
	// Mean, P50, P95 and P99 are per-request latencies from arrival to
	// batch completion (queueing + padding + inference).
	Mean, P50, P95, P99 units.Seconds
	// MeanQueueing is the average time spent waiting before a batch
	// started.
	MeanQueueing units.Seconds
	// Batches counts executed batches and MeanBatchSize is their mean
	// sequence occupancy, with one shared definition across both
	// simulators: Simulate counts each formed batch once;
	// SimulateContinuous counts every executed launch — each prefill
	// (or prompt chunk, in the machine's chunk mode) and each decode
	// iteration — weighted by the sequences it carried. Under that
	// definition a long-running decode batch contributes its occupancy
	// every iteration, so MeanBatchSize reflects sustained device-side
	// batch utilization rather than admission burst sizes.
	Batches       int
	MeanBatchSize float64
	// Preemptions counts sequences evicted and recomputed because the
	// paged KV pool ran dry (continuous batching with KVBudget only).
	Preemptions int
}

// Simulate runs the batch-serving loop over the request stream (which
// must be sorted by arrival; PoissonArrivals output already is).
func Simulate(cfg Config, reqs []Request) (Metrics, error) {
	if err := cfg.check(reqs); err != nil {
		return Metrics{}, err
	}

	var (
		m         Metrics
		clock     units.Seconds
		latencies []units.Seconds
		queueing  []units.Seconds
		next      int
	)
	for next < len(reqs) {
		head := reqs[next]
		// The server idles until the head arrives, then holds the batch
		// open for MaxWait (or until full).
		if clock < head.Arrival {
			clock = head.Arrival
		}
		deadline := head.Arrival + cfg.MaxWait
		if clock > deadline {
			deadline = clock
		}
		batch := []Request{head}
		next++
		for next < len(reqs) && len(batch) < cfg.MaxBatch && reqs[next].Arrival <= deadline {
			batch = append(batch, reqs[next])
			next++
		}
		start := deadline
		if len(batch) == cfg.MaxBatch {
			// A full batch launches as soon as its last member arrived.
			start = batch[len(batch)-1].Arrival
			if start < clock {
				start = clock
			}
		}

		// The batch pads to its longest prompt and generation.
		maxIn, maxOut := 1, 1
		for _, r := range batch {
			if r.InputLen > maxIn {
				maxIn = r.InputLen
			}
			if r.OutputLen > maxOut {
				maxOut = r.OutputLen
			}
		}
		res, err := engine.Run(engine.Config{
			Framework:          cfg.Framework,
			System:             cfg.System,
			Model:              cfg.Model,
			Workload:           trace.Workload{Batch: len(batch), InputLen: maxIn, OutputLen: maxOut},
			Placement:          cfg.Placement,
			AssumeHostCapacity: cfg.AssumeHostCapacity,
		})
		if err != nil {
			return Metrics{}, err
		}
		if res.OOM {
			return Metrics{}, fmt.Errorf("serve: batch of %d OOMed: %s", len(batch), res.OOMReason)
		}
		finish := start + res.Latency
		clock = finish
		m.Batches++
		m.MeanBatchSize += float64(len(batch))
		for _, r := range batch {
			latencies = append(latencies, finish-r.Arrival)
			queueing = append(queueing, start-r.Arrival)
			m.GeneratedTokens += r.OutputLen
		}
		if finish > m.Makespan {
			m.Makespan = finish
		}
	}

	summarize(latencies, queueing, &m)
	return m, nil
}

// summarize is the metrics tail all three simulators share: it
// normalizes the batch-size and throughput accumulators already in m
// and fills the latency report from the per-request samples (sorting
// latencies in place).
func summarize(latencies, queueing []units.Seconds, m *Metrics) {
	m.Completed = len(latencies)
	if m.Batches > 0 {
		m.MeanBatchSize /= float64(m.Batches)
	}
	if m.Makespan > 0 {
		m.Throughput = float64(m.GeneratedTokens) / float64(m.Makespan)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum, qsum float64
	for _, l := range latencies {
		sum += float64(l)
	}
	for _, q := range queueing {
		qsum += float64(q)
	}
	if len(latencies) > 0 {
		m.Mean = units.Seconds(sum / float64(len(latencies)))
	}
	if len(queueing) > 0 {
		m.MeanQueueing = units.Seconds(qsum / float64(len(queueing)))
	}
	m.P50 = Percentile(latencies, 0.50)
	m.P95 = Percentile(latencies, 0.95)
	m.P99 = Percentile(latencies, 0.99)
}

// Percentile returns the nearest-rank p-quantile (p in [0, 1]) of an
// ascending-sorted sample, 0 when it is empty: element ceil(p·n), ranks
// clamped to the ends. Nearest-rank — not interpolation — so the value
// is always an observed sample. The one implementation behind the
// simulators' Metrics, router.Percentile and scenario.Percentile.
func Percentile[T ~float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}
