// Package gateway is the live serving layer over the functional
// inference engine: a bounded admission queue in front of an
// iteration-level continuous batcher that drives llm.Executor under
// concurrent traffic. Scheduling — FIFO admission with eager KV-block
// reservation, youngest-first preemption, immediate retirement — is the
// batchpolicy package, the exact same state machine the serving
// simulator (internal/serve) runs; the differential test replays one
// trace through both and requires identical event streams.
//
// Concurrency model: every client goroutine talks to the single batcher
// goroutine through a bounded channel, and all scheduler/engine state is
// confined to the batcher. Responses travel over per-request buffered
// channels, so the batcher never blocks on a slow or departed client;
// metrics are lock-free atomics, the only state shared both ways.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/kvprefix"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/offload"
	"github.com/lia-sim/lia/internal/units"
)

// Errors a Submit can return, beyond the caller's own context errors.
var (
	// ErrOverloaded: the admission queue is full; shed and retry later
	// (HTTP 429).
	ErrOverloaded = errors.New("gateway: overloaded, admission queue full")
	// ErrShuttingDown: the gateway no longer accepts work (HTTP 503).
	ErrShuttingDown = errors.New("gateway: shutting down")
)

// Config parameterizes the gateway.
type Config struct {
	// MaxBatch caps the running batch (default 8).
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue sheds new
	// submissions with ErrOverloaded instead of queueing unboundedly
	// (default 64).
	QueueDepth int
	// MaxNewTokens caps a single request's generation length (default:
	// whatever fits the model's MaxSeqLen).
	MaxNewTokens int
	// KVBudget, when positive, bounds the paged KV pool; admission then
	// reserves blocks eagerly and exhaustion preempts youngest-first.
	KVBudget units.Bytes
	// KVBlockTokens is the KV page size in token slots (default 16).
	KVBlockTokens int
	// Offload, when set, is the tiered-memory runtime hosting the
	// executor's weights and KV cache. Admission then consults the tiered
	// capacity — a zero KVBudget is filled in from the host's KV-tier
	// budget — and the host's per-tier counters render into /metrics
	// alongside the gateway's own.
	Offload *offload.Host
	// PrefixCache enables cross-request KV reuse: a radix tree over the
	// paged pool caches prompt prefixes at block granularity, admission
	// charges only a prompt's unshared suffix, and prefill skips the
	// cached tokens. Generated tokens stay bit-identical to the cache-off
	// path. With an Offload host, cold prefix nodes spill to the DDR/CXL
	// tiers instead of being evicted. Off by default.
	PrefixCache bool
	// PrefixMaxBlocks bounds the cache's residency when no KV pool is
	// configured (ignored otherwise; default 1024).
	PrefixMaxBlocks int
	// PrefillChunk, when positive, prefills admitted prompts in fixed-
	// size chunks interleaved with the running batch's decode rounds, so
	// one long arrival stops stalling everyone else's inter-token latency
	// and queued work's TTFT. Tokens stay bit-identical to monolithic
	// prefill (INT8 executors fall back internally). Off (monolithic) by
	// default.
	PrefillChunk int
	// SpecGamma, when positive, decodes speculatively: a shallow draft
	// sharing the target's weights proposes up to γ tokens per round and
	// the target verifies them all in one multi-row pass, emitting
	// 1+accepted tokens per target pass. Greedy acceptance keeps the
	// streams bit-identical to plain decode. Requires the BF16 path
	// without an Offload host. Off by default.
	SpecGamma int
	// SpecDraftLayers is the draft model's depth (default 1).
	SpecDraftLayers int
	// Quant selects the executor's weight tier: "" or "dense" (BF16),
	// "sparse" (block-sparse AMX — zero tile blocks skip their loads and
	// TDP), "int4lut" (INT4 group quantization through the LUT-GEMV
	// kernel), "int8" (W8A8 TDPBUSD), or "sparse-int8" (block-pruned W8A8
	// whose prepacked image skips zero blocks). The gateway applies the
	// tier to the executor before serving; lia_quant_* gauges report the
	// resulting footprint.
	Quant string
	// QuantSparsity is the sparse tiers' zero-block fraction (default 0.5).
	QuantSparsity float64
	// QuantGroup is the int4lut tier's group length (default
	// quant.DefaultGroupINT4).
	QuantGroup int
	// OnEvent, when set, observes every scheduler event the batcher
	// sees (admissions, preemptions, evictions, removals) after the
	// gateway's own counters update. The router's differential tests
	// use it to compare event streams. Called on the batcher goroutine —
	// keep it fast and do not call back into the gateway.
	OnEvent func(batchpolicy.Event)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.Offload != nil && c.KVBudget == 0 {
		c.KVBudget = c.Offload.KVBudget()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.KVBlockTokens == 0 {
		c.KVBlockTokens = 16
	}
	if c.SpecGamma > 0 && c.SpecDraftLayers == 0 {
		c.SpecDraftLayers = 1
	}
	if (c.Quant == "sparse" || c.Quant == "sparse-int8") && c.QuantSparsity == 0 {
		c.QuantSparsity = 0.5
	}
	return c
}

// Validate reports configuration errors (after defaulting).
func (c Config) Validate() error {
	if c.MaxBatch < 1 {
		return fmt.Errorf("gateway: MaxBatch must be ≥1, got %d", c.MaxBatch)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("gateway: QueueDepth must be ≥1, got %d", c.QueueDepth)
	}
	if c.MaxNewTokens < 0 {
		return fmt.Errorf("gateway: MaxNewTokens must be ≥0, got %d", c.MaxNewTokens)
	}
	if c.KVBudget < 0 {
		return fmt.Errorf("gateway: KVBudget must be ≥0, got %v", c.KVBudget)
	}
	if c.PrefillChunk < 0 {
		return fmt.Errorf("gateway: PrefillChunk must be ≥0, got %d", c.PrefillChunk)
	}
	if c.SpecGamma < 0 {
		return fmt.Errorf("gateway: SpecGamma must be ≥0, got %d", c.SpecGamma)
	}
	if c.SpecGamma > 0 {
		if c.SpecDraftLayers < 1 {
			return fmt.Errorf("gateway: SpecDraftLayers must be ≥1, got %d", c.SpecDraftLayers)
		}
		if c.Offload != nil {
			return fmt.Errorf("gateway: speculative decoding does not compose with tiered-memory offload")
		}
	}
	switch c.Quant {
	case "", "dense", "sparse", "int4lut", "int8", "sparse-int8":
	default:
		return fmt.Errorf("gateway: unknown quant tier %q (want dense, sparse, int4lut, int8 or sparse-int8)", c.Quant)
	}
	if c.QuantSparsity < 0 || c.QuantSparsity >= 1 {
		return fmt.Errorf("gateway: QuantSparsity must be in [0,1), got %g", c.QuantSparsity)
	}
	if c.QuantGroup < 0 {
		return fmt.Errorf("gateway: QuantGroup must be ≥0, got %d", c.QuantGroup)
	}
	return nil
}

// Result is one served request's output and timing.
type Result struct {
	// Tokens is the generated token stream, bit-identical to a solo
	// Generate call with the same prompt and length.
	Tokens []int
	// QueueWait is enqueue → first admission, TTFT enqueue → first token
	// available, Total enqueue → completion.
	QueueWait, TTFT, Total time.Duration
}

// outcome is what the batcher sends back over a request's response
// channel (buffered, so the batcher never blocks on delivery).
type outcome struct {
	res Result
	err error
}

// pending is one submitted request travelling from a client goroutine to
// the batcher.
type pending struct {
	ctx      context.Context
	prompt   []int
	n        int
	enqueued time.Time
	resp     chan outcome // buffered(1); batcher sends exactly once
}

// Gateway serves generation requests over one shared Executor.
type Gateway struct {
	cfg  Config
	exec *llm.Executor
	m    *metrics

	submit chan *pending
	stop   chan struct{} // closed by Shutdown: refuse new work, drain
	kill   chan struct{} // closed when the drain deadline passes: abort
	done   chan struct{} // closed when the batcher exits

	stopOnce sync.Once
	killOnce sync.Once

	poolTotalBlocks int // for the can-ever-fit admission check (0 = unconstrained)
	blockTokens     int

	// Load gauges the batcher publishes each round for the router's
	// health probes (the pool itself is batcher-confined).
	kvFree  atomic.Int64
	running atomic.Int64

	tree   *kvprefix.Tree  // prefix cache (nil when disabled)
	prefix *prefixAdmitter // pooled admission through the tree (nil when pool-less or disabled)

	draft *llm.Executor // speculative draft (nil when SpecGamma is 0)
}

// New starts a gateway over the executor. The batcher goroutine runs
// until Shutdown.
func New(exec *llm.Executor, cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Apply the weight tier before anything reads the executor (the
	// speculative-decode check below sees the final tier, and the batcher
	// never observes a tier change mid-serve).
	switch cfg.Quant {
	case "sparse":
		exec.EnableSparse(cfg.QuantSparsity)
	case "int4lut":
		exec.EnableINT4LUT(cfg.QuantGroup)
	case "int8":
		exec.EnableINT8()
	case "sparse-int8":
		exec.EnableSparseINT8(cfg.QuantSparsity)
	}
	var pool *kvpage.Manager
	if cfg.KVBudget > 0 {
		var err error
		pool, err = kvpage.ForModel(cfg.KVBudget, cfg.KVBlockTokens, exec.Model.Cfg)
		if err != nil {
			return nil, err
		}
	}
	g := &Gateway{
		cfg:    cfg,
		exec:   exec,
		m:      newMetrics(),
		submit: make(chan *pending, cfg.QueueDepth),
		stop:   make(chan struct{}),
		kill:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	var sched *batchpolicy.Scheduler
	var err error
	if cfg.PrefixCache {
		var spiller kvprefix.Spiller
		if cfg.Offload != nil {
			spiller = cfg.Offload.PrefixStore()
		}
		g.tree, err = kvprefix.New(kvprefix.Config{
			BlockTokens: cfg.KVBlockTokens,
			Layers:      len(exec.Model.Layers),
			Pool:        pool,
			MaxBlocks:   cfg.PrefixMaxBlocks,
			Spiller:     spiller,
		})
		if err != nil {
			return nil, err
		}
	}
	if g.tree != nil && pool != nil {
		// Admission goes through the tree: charge only unshared suffixes.
		g.prefix = newPrefixAdmitter(pool, g.tree)
		sched, err = batchpolicy.NewSchedulerKV(cfg.MaxBatch, g.prefix)
	} else {
		sched, err = batchpolicy.NewScheduler(cfg.MaxBatch, pool)
	}
	if err != nil {
		return nil, err
	}
	if pool != nil {
		g.poolTotalBlocks = pool.TotalBlocks()
		g.blockTokens = pool.BlockTokens()
		g.kvFree.Store(int64(pool.FreeBlocks()))
	}
	// The scheduler's event stream is the batcher's only view of
	// preemptions and mid-flight removals (cancel/deadline reaping); both
	// feed counters the scenario harness reads.
	sched.OnEvent = func(e batchpolicy.Event) {
		switch e.Kind {
		case batchpolicy.EventPreempt:
			g.m.preempted.Add(1)
		case batchpolicy.EventRemove:
			g.m.reaped.Add(1)
		}
		if cfg.OnEvent != nil {
			cfg.OnEvent(e)
		}
	}
	if err := sched.SetChunk(cfg.PrefillChunk); err != nil {
		return nil, err
	}
	if cfg.SpecGamma > 0 {
		if exec.INT8() || exec.Mem != nil {
			return nil, fmt.Errorf("gateway: speculative decoding requires a BF16 executor without a memory host")
		}
		draftM, err := llm.DraftModel(exec.Model, cfg.SpecDraftLayers)
		if err != nil {
			return nil, err
		}
		g.draft = llm.NewExecutor(draftM, exec.Policy)
	}
	go g.run(sched)
	return g, nil
}

// validate rejects work that could never be served, before it occupies a
// queue slot: degenerate shapes, prompts past the context window or the
// vocabulary, and prompts no amount of KV-pool draining could place.
func (g *Gateway) validate(prompt []int, n int) error {
	if n < 1 {
		return fmt.Errorf("gateway: must request at least one token, got %d", n)
	}
	if g.cfg.MaxNewTokens > 0 && n > g.cfg.MaxNewTokens {
		return fmt.Errorf("gateway: %d tokens requested, cap is %d", n, g.cfg.MaxNewTokens)
	}
	cfg := g.exec.Model.Cfg
	if len(prompt) == 0 {
		return fmt.Errorf("gateway: empty prompt")
	}
	if len(prompt)+n-1 > cfg.MaxSeqLen {
		return fmt.Errorf("gateway: prompt %d + %d generated tokens exceeds max sequence length %d",
			len(prompt), n, cfg.MaxSeqLen)
	}
	for i, tok := range prompt {
		if tok < 0 || tok >= cfg.VocabSize {
			return fmt.Errorf("gateway: prompt token %d (%d) outside vocabulary [0,%d)", i, tok, cfg.VocabSize)
		}
	}
	if g.poolTotalBlocks > 0 {
		need := (len(prompt)+g.blockTokens-1)/g.blockTokens + 1
		if need > g.poolTotalBlocks {
			return fmt.Errorf("gateway: prompt needs %d KV blocks, pool holds %d", need, g.poolTotalBlocks)
		}
	}
	return nil
}

// Submit enqueues a generation request and blocks until it completes,
// the context is canceled, or the gateway sheds or refuses it. The
// returned tokens are bit-identical to Executor.Generate(prompt, n).
func (g *Gateway) Submit(ctx context.Context, prompt []int, n int) (Result, error) {
	if err := g.validate(prompt, n); err != nil {
		g.m.rejected.Add(1)
		return Result{}, err
	}
	select {
	case <-g.stop:
		return Result{}, ErrShuttingDown
	default:
	}
	p := &pending{
		ctx:      ctx,
		prompt:   prompt,
		n:        n,
		enqueued: time.Now(),
		resp:     make(chan outcome, 1),
	}
	select {
	case g.submit <- p:
		g.m.received.Add(1)
	default:
		g.m.shed.Add(1)
		return Result{}, ErrOverloaded
	}
	select {
	case out := <-p.resp:
		return g.deliver(out)
	case <-ctx.Done():
		// Prefer a response that raced in just before the cancel; else
		// the batcher notices the canceled context on its next iteration
		// and discards the work (the buffered channel means it never
		// blocks on us having left).
		select {
		case out := <-p.resp:
			return g.deliver(out)
		default:
			g.m.canceled.Add(1)
			return Result{}, ctx.Err()
		}
	case <-g.done:
		// The batcher exited between our enqueue and its final drain.
		// Prefer a response it may have buffered just before exiting.
		select {
		case out := <-p.resp:
			return g.deliver(out)
		default:
			return Result{}, ErrShuttingDown
		}
	}
}

// deliver finalizes a batcher response on the client's goroutine.
// Outcome counters live here, on the side that actually observes the
// outcome, so completed/canceled/shed always sum to what clients saw —
// counting completions in the batcher would race a client taking the
// cancellation branch.
func (g *Gateway) deliver(out outcome) (Result, error) {
	switch {
	case out.err == nil:
		g.m.completed.Add(1)
	case errors.Is(out.err, context.Canceled), errors.Is(out.err, context.DeadlineExceeded):
		// The batcher reaped this request against its budget before the
		// client's own context watcher fired; it is a cancel either way.
		g.m.canceled.Add(1)
	}
	return out.res, out.err
}

// Shutdown stops admission immediately, drains in-flight and queued work,
// and returns when the batcher has exited. If ctx expires first the
// drain is aborted: outstanding requests are failed with ErrShuttingDown
// and the context's error is returned.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.stopOnce.Do(func() { close(g.stop) })
	select {
	case <-g.done:
		return nil
	case <-ctx.Done():
		g.killOnce.Do(func() { close(g.kill) })
		<-g.done
		return ctx.Err()
	}
}

// Snapshot returns the current counters and latency summaries.
func (g *Gateway) Snapshot() Snapshot {
	s := g.m.snapshot()
	// Tier identity and footprint are immutable after New, so reading the
	// executor here is race-free.
	s.QuantTier = g.exec.QuantTier()
	s.WeightFootprintBytes = uint64(g.exec.WeightFootprint())
	return s
}

// Prometheus renders the metrics in Prometheus text format. With an
// offload host configured, the tiered-memory counters
// (lia_offload_*) follow the gateway's own; with the prefix cache on,
// the lia_prefix_* counters follow too.
func (g *Gateway) Prometheus() string {
	out := g.m.prometheus() + quantProm(g.exec)
	if g.cfg.Offload != nil {
		out += g.cfg.Offload.Prometheus()
	}
	if st, ok := g.PrefixStats(); ok {
		out += prefixProm(st)
	}
	return out
}

// Draining reports whether Shutdown has begun.
func (g *Gateway) Draining() bool {
	select {
	case <-g.stop:
		return true
	default:
		return false
	}
}

// Health is the load signal a router's placement scorer reads: queue
// occupancy, in-flight batch size, and KV-pool headroom. The KV gauges
// are published by the batcher once per round (the pool itself is
// confined to the batcher goroutine), so they trail the true pool state
// by at most one scheduling round.
type Health struct {
	// QueueLen and QueueCap are the admission queue's occupancy and bound.
	QueueLen, QueueCap int
	// Running is the in-flight batch size as of the last round.
	Running int
	// KVFreeBlocks and KVTotalBlocks are the paged pool's headroom and
	// capacity (both 0 when serving without a KV budget).
	KVFreeBlocks, KVTotalBlocks int
	// Draining reports whether Shutdown has begun.
	Draining bool
}

// Health returns the gateway's current load signal. Safe to call from
// any goroutine.
func (g *Gateway) Health() Health {
	return Health{
		QueueLen:      len(g.submit),
		QueueCap:      g.cfg.QueueDepth,
		Running:       int(g.running.Load()),
		KVFreeBlocks:  int(g.kvFree.Load()),
		KVTotalBlocks: g.poolTotalBlocks,
		Draining:      g.Draining(),
	}
}
