package gateway

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/lia-sim/lia/internal/llm"
)

// histBuckets are the latency histogram's upper bounds: powers of two
// from 64µs to ~134s plus +Inf. Log-spaced buckets keep the histogram
// cheap (one atomic add per observation) while resolving both
// microsecond queue waits and multi-second tail latencies.
var histBuckets = func() []time.Duration {
	var b []time.Duration
	for d := 64 * time.Microsecond; d < 3*time.Minute; d *= 2 {
		b = append(b, d)
	}
	return b
}()

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation: per-bucket counters plus a running sum and count, all
// atomic, no locks.
type histogram struct {
	counts []atomic.Uint64 // one per bound, plus the +Inf overflow at the end
	sumNs  atomic.Int64
	n      atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(histBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	i := sort.Search(len(histBuckets), func(i int) bool { return d <= histBuckets[i] })
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.n.Add(1)
}

// quantile returns an upper bound on the q-quantile: the bound of the
// bucket holding the q-th observation (+Inf reports the largest finite
// bound). Bucketed quantiles overestimate by at most one bucket width —
// fine for operational percentiles; tests needing exact values compute
// them client-side from raw durations.
func (h *histogram) quantile(q float64) time.Duration {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(histBuckets) {
				return histBuckets[i]
			}
			return histBuckets[len(histBuckets)-1]
		}
	}
	return histBuckets[len(histBuckets)-1]
}

func (h *histogram) mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / int64(n))
}

// writeProm renders the histogram in Prometheus text format
// (cumulative `le` buckets, then sum and count).
func (h *histogram) writeProm(b *strings.Builder, name string) {
	var cum uint64
	for i, bound := range histBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", bound.Seconds()), cum)
	}
	cum += h.counts[len(histBuckets)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, time.Duration(h.sumNs.Load()).Seconds())
	fmt.Fprintf(b, "%s_count %d\n", name, h.n.Load())
}

// Metrics is the gateway's observability surface: monotonic counters
// for every request outcome plus latency histograms for the three
// serving-quality signals (queue wait, time-to-first-token, per-token
// decode time). All fields are safe for concurrent use; the batcher and
// every client goroutine update them without coordination.
type metrics struct {
	received  atomic.Uint64 // accepted into the queue
	completed atomic.Uint64 // served to completion
	shed      atomic.Uint64 // rejected: queue full
	rejected  atomic.Uint64 // rejected: invalid shape or impossible fit
	canceled  atomic.Uint64 // abandoned: deadline or client cancel
	preempted atomic.Uint64 // evictions under KV pressure (recomputed later)
	reaped    atomic.Uint64 // sequences removed mid-flight (cancel/deadline reaping)
	tokens    atomic.Uint64 // generated tokens, including recomputation

	prefillChunks atomic.Uint64 // prompt chunks computed (chunked prefill)
	specRounds    atomic.Uint64 // draft-and-verify rounds
	specDrafted   atomic.Uint64 // tokens the draft proposed
	specAccepted  atomic.Uint64 // proposals matching the target's argmax
	specEmitted   atomic.Uint64 // tokens emitted through speculative steps

	queueWait *histogram // enqueue → first admission
	ttft      *histogram // enqueue → first token available
	perToken  *histogram // mean decode-iteration time per served token
}

func newMetrics() *metrics {
	return &metrics{queueWait: newHistogram(), ttft: newHistogram(), perToken: newHistogram()}
}

// Snapshot is a point-in-time copy of the gateway's counters and
// histogram summaries, for the final stats dump and tests.
type Snapshot struct {
	Received, Completed, Shed, Rejected, Canceled uint64
	Preempted, Tokens                             uint64
	// Reaped counts sequences the batcher removed mid-flight when their
	// context was canceled or their deadline passed — the cancel-storm
	// signal the scenario harness asserts on (every reap also counts as a
	// Canceled outcome once the client is answered).
	Reaped                    uint64
	PrefillChunks             uint64
	SpecRounds, SpecDrafted   uint64
	SpecAccepted, SpecEmitted uint64
	// QuantTier and WeightFootprintBytes describe the executor's active
	// weight tier (immutable after New).
	QuantTier                   string
	WeightFootprintBytes        uint64
	QueueWaitMean, QueueWaitP99 time.Duration
	TTFTMean, TTFTP50, TTFTP99  time.Duration
	PerTokenMean                time.Duration
}

func (m *metrics) snapshot() Snapshot {
	return Snapshot{
		Received:      m.received.Load(),
		Completed:     m.completed.Load(),
		Shed:          m.shed.Load(),
		Rejected:      m.rejected.Load(),
		Canceled:      m.canceled.Load(),
		Preempted:     m.preempted.Load(),
		Reaped:        m.reaped.Load(),
		Tokens:        m.tokens.Load(),
		PrefillChunks: m.prefillChunks.Load(),
		SpecRounds:    m.specRounds.Load(),
		SpecDrafted:   m.specDrafted.Load(),
		SpecAccepted:  m.specAccepted.Load(),
		SpecEmitted:   m.specEmitted.Load(),
		QueueWaitMean: m.queueWait.mean(),
		QueueWaitP99:  m.queueWait.quantile(0.99),
		TTFTMean:      m.ttft.mean(),
		TTFTP50:       m.ttft.quantile(0.50),
		TTFTP99:       m.ttft.quantile(0.99),
		PerTokenMean:  m.perToken.mean(),
	}
}

// prometheus renders every counter and histogram in Prometheus text
// exposition format for GET /metrics.
func (m *metrics) prometheus() string {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("lia_gateway_requests_received_total", "Requests accepted into the queue.", m.received.Load())
	counter("lia_gateway_requests_completed_total", "Requests served to completion.", m.completed.Load())
	counter("lia_gateway_requests_shed_total", "Requests rejected because the queue was full.", m.shed.Load())
	counter("lia_gateway_requests_rejected_total", "Requests rejected as invalid or impossible to place.", m.rejected.Load())
	counter("lia_gateway_requests_canceled_total", "Requests abandoned by deadline or client cancel.", m.canceled.Load())
	counter("lia_gateway_preemptions_total", "Sequences evicted under KV pressure.", m.preempted.Load())
	counter("lia_gateway_reaped_total", "Sequences removed mid-flight by cancel/deadline reaping.", m.reaped.Load())
	counter("lia_gateway_generated_tokens_total", "Generated tokens, including recomputation after preemption.", m.tokens.Load())
	counter("lia_prefill_chunks_total", "Prompt chunks computed under chunked prefill.", m.prefillChunks.Load())
	counter("lia_spec_rounds_total", "Speculative draft-and-verify rounds.", m.specRounds.Load())
	counter("lia_spec_drafted_tokens_total", "Tokens proposed by the speculative draft.", m.specDrafted.Load())
	counter("lia_spec_accepted_tokens_total", "Draft proposals accepted (matched the target argmax).", m.specAccepted.Load())
	counter("lia_spec_emitted_tokens_total", "Tokens emitted through speculative decode steps.", m.specEmitted.Load())
	hist := func(name, help string, h *histogram) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		h.writeProm(&b, name)
	}
	hist("lia_gateway_queue_wait_seconds", "Enqueue to first admission.", m.queueWait)
	hist("lia_gateway_ttft_seconds", "Enqueue to first token available.", m.ttft)
	hist("lia_gateway_per_token_seconds", "Mean decode-iteration time per served token.", m.perToken)
	return b.String()
}

// quantProm renders the weight-tier gauges. Everything here is immutable
// after gateway construction (the tier is applied before the batcher
// starts), so concurrent scrapes are race-free.
func quantProm(exec *llm.Executor) string {
	var b strings.Builder
	gauge := func(name, help string, labels string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s%s %g\n", name, help, name, name, labels, v)
	}
	gauge("lia_quant_tier", "Active weight tier (1 for the tier named by the label).",
		fmt.Sprintf("{tier=%q}", exec.QuantTier()), 1)
	gauge("lia_quant_weight_bytes", "Serving footprint of the decoder layers' parameter matrices under the active tier.",
		"", float64(exec.WeightFootprint()))
	if f := exec.SparseSkipFraction(); f > 0 {
		gauge("lia_quant_block_sparsity", "Zero tile-block fraction the sparse tier skips.", "", f)
	}
	return b.String()
}
