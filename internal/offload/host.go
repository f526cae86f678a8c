package offload

import (
	"fmt"
	"strings"
	"sync"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// paramSublayers are the four weight-carrying decoder sublayers — the
// unit of streaming granularity (each is one transfer with its own link
// setup, matching the analytic engine's per-sublayer D_Y loads).
var paramSublayers = [...]model.Sublayer{model.QKVMapping, model.OutProjection, model.FC1, model.FC2}

// prefetchTicket is one outstanding layer prefetch travelling from the
// pass goroutine to the streaming worker.
type prefetchTicket struct {
	li   int
	done chan struct{}
}

// LayerTiming is one layer's slot in a pass's virtual-clock schedule.
type LayerTiming struct {
	Layer  int
	Pinned bool
	// StreamStart/StreamFinish bound the layer's parameter upload on the
	// shared link (zero-width for pinned layers).
	StreamStart, StreamFinish units.Seconds
	// ComputeStart/ComputeFinish bound the layer's compute, which waits
	// for both the previous layer's compute and this layer's stream.
	ComputeStart, ComputeFinish units.Seconds
}

// PassTiming is one forward pass's virtual-clock schedule under the §5
// double-buffered pipeline: stream of layer l+1 overlaps compute of l.
type PassTiming struct {
	Stage      model.Stage
	Rows, Past int
	// Makespan is the pass's end-to-end virtual time.
	Makespan units.Seconds
	// Stream and Compute are the per-layer durations summed (overlap
	// makes Makespan < Stream + Compute when the pipeline works).
	Stream, Compute units.Seconds
	Layers          []LayerTiming
}

// durKey memoizes per-layer compute durations by pass shape.
type durKey struct {
	stage  model.Stage
	rows   int
	past   int
	pinned bool
}

// Host hosts a live executor's weights and KV cache in the tiered
// runtime: it implements llm.MemHost, so every weight access, KV
// append, and layer boundary of the functional engine lands here. It
// never touches the data — tokens stay bit-identical — but it runs the
// paper's streaming schedule against those events: a real prefetch
// worker goroutine double-buffers streamed layers (Optimization-2), the
// virtual clock prices each pass, and the page table applies the §6 KV
// placement and eviction policy.
type Host struct {
	plan   *Plan
	mgr    *Manager
	xfer   *XferEngine
	env    core.Env
	policy core.Policy

	// weights and staging are immutable after NewHost: the prefetch
	// worker and executor forks read them without locking.
	weights map[int]*Allocation
	staging [2]*Allocation
	// layerStreamCost is one streamed layer's parameter upload time on
	// an idle link: four sublayer transfers, each paying the link setup
	// (and the pool's extra latency when parameters live in CXL). The
	// differential test pins it against the analytic engine's per-layer
	// D_Y load within tolerance.
	layerStreamCost units.Seconds

	mu                                       sync.Mutex
	pt                                       *pageTable
	durMemo                                  map[durKey]units.Seconds
	closed                                   bool
	weightPacks                              uint64
	prefills                                 uint64
	decodes                                  uint64
	lastPass                                 PassTiming
	totalStream, totalCompute, totalMakespan units.Seconds

	tickets chan *prefetchTicket
	wg      sync.WaitGroup
}

var _ llm.MemHost = (*Host)(nil)

// NewHost builds the tiered runtime for a plan and starts its prefetch
// worker (stop it with Close). policy is the compute placement the
// virtual clock prices layers under; the zero value is full-GPU.
func NewHost(plan *Plan, policy core.Policy) (*Host, error) {
	m := plan.Cfg.Model
	h := &Host{
		plan:    plan,
		mgr:     plan.Manager(),
		xfer:    NewXferEngine(plan.Link, plan.Pool),
		env:     core.NewEnvWithPlacement(plan.Cfg.System, m, plan.Cfg.Placement),
		policy:  policy,
		weights: make(map[int]*Allocation, m.Layers*len(paramSublayers)),
		durMemo: make(map[durKey]units.Seconds),
		tickets: make(chan *prefetchTicket, 256),
	}
	h.pt = newPageTable(plan, h.mgr)
	for li := 0; li < m.Layers; li++ {
		tier := plan.ParamTier
		if plan.Pinned(li) {
			tier = HBM
		}
		for _, s := range paramSublayers {
			b := plan.SublayerBytes(s)
			a, err := h.mgr.Alloc(tier, cxl.Parameters, fmt.Sprintf("w/l%d/%s", li, s), b)
			if err != nil {
				return nil, fmt.Errorf("offload: hosting weights: %w", err)
			}
			h.weights[weightKey(li, s)] = a
		}
	}
	for _, s := range paramSublayers {
		h.layerStreamCost += h.xfer.xferCost(plan.ParamTier, plan.SublayerBytes(s), 1)
	}
	if plan.StreamedLayers() > 0 {
		for i := range h.staging {
			a, err := h.mgr.Alloc(HBM, cxl.Parameters, fmt.Sprintf("stage/%d", i), plan.LayerBytes())
			if err != nil {
				return nil, fmt.Errorf("offload: staging buffers: %w", err)
			}
			h.staging[i] = a
		}
	}
	h.wg.Add(1)
	go h.worker()
	return h, nil
}

func weightKey(li int, s model.Sublayer) int { return li*model.NumSublayers + int(s) }

func (h *Host) weight(li int, s model.Sublayer) *Allocation {
	return h.weights[weightKey(li, s)]
}

// worker drains prefetch tickets. It takes only the manager's and the
// transfer engine's internal locks — never h.mu — so a pass goroutine
// blocked sending a ticket under h.mu always makes progress.
func (h *Host) worker() {
	defer h.wg.Done()
	for t := range h.tickets {
		h.prefetch(t)
	}
}

// prefetch performs one streamed layer's upload accounting: read each
// parameter sublayer from its host tier, occupy the link, land the bytes
// in the HBM staging slot.
func (h *Host) prefetch(t *prefetchTicket) {
	for _, s := range paramSublayers {
		if w := h.weight(t.li, s); w != nil {
			h.mgr.Read(w, w.Bytes())
			h.xfer.HostToGPU(w.Tier(), w.Bytes(), 0)
		}
	}
	if st := h.staging[t.li%2]; st != nil {
		h.mgr.Write(st, h.plan.LayerBytes())
	}
	close(t.done)
}

// issueLocked hands a prefetch to the worker (inline after Close).
// Callers hold h.mu.
func (h *Host) issueLocked(li int) *prefetchTicket {
	t := &prefetchTicket{li: li, done: make(chan struct{})}
	if h.closed {
		h.prefetch(t)
		return t
	}
	h.tickets <- t
	return t
}

// Close stops the prefetch worker and waits for it to drain. Hooks keep
// working afterwards with inline (synchronous) prefetch accounting.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	close(h.tickets)
	h.mu.Unlock()
	h.wg.Wait()
}

// CacheCreated implements llm.MemHost.
func (h *Host) CacheCreated(id int64) {
	h.mu.Lock()
	h.pt.createCache(id)
	h.mu.Unlock()
}

// CacheRetired implements llm.MemHost.
func (h *Host) CacheRetired(id int64) {
	h.mu.Lock()
	h.pt.retireCache(id)
	h.mu.Unlock()
}

// BeginPass implements llm.MemHost.
func (h *Host) BeginPass(cacheID int64, stage model.Stage, rows, past int) llm.PassHooks {
	ps := &passState{
		h: h, cacheID: cacheID, stage: stage, rows: rows, past: past,
		pending: make(map[int]*prefetchTicket),
		timing: PassTiming{
			Stage: stage, Rows: rows, Past: past,
			Layers: make([]LayerTiming, h.plan.Cfg.Model.Layers),
		},
	}
	return ps
}

// computeDur returns one layer's compute duration (local memory + FLOPs,
// no link time) for a pass shape, memoized. Callers hold h.mu.
func (h *Host) computeDur(stage model.Stage, rows, past int, pinned bool) units.Seconds {
	key := durKey{stage, rows, past, pinned}
	if d, ok := h.durMemo[key]; ok {
		return d
	}
	l := rows
	if stage == model.Decode {
		l = past + rows
	}
	_, parts := core.LayerLatencyOpts(h.env, stage, h.policy, 1, l,
		core.Options{ParamsResident: pinned, KVOnGPU: h.plan.GPU.KVOnGPU})
	var d units.Seconds
	for _, br := range parts {
		d += br.Compute
	}
	h.durMemo[key] = d
	return d
}

// InjectLinkFault installs a transient link-fault hook on the host's
// transfer engine (nil removes it). Faults degrade and occasionally
// double the virtual time of prefetch transfers — the scheduled
// (notional) per-layer stream slots in PassTiming keep pricing the
// healthy link, so Snapshot().Xfer shows exactly how far the faulted
// link fell behind the plan. Tokens are never affected.
func (h *Host) InjectLinkFault(f LinkFault) { h.xfer.SetLinkFault(f) }

// XferStats exposes the host's cumulative link accounting (including
// injected faults and retries) without the full snapshot.
func (h *Host) XferStats() XferStats { return h.xfer.Stats() }

// SimulatePass prices one forward pass on the virtual clock without
// running the engine: the same double-buffered schedule the hooks build,
// from a cold pipeline. The overlap property tests drive this directly.
func (h *Host) SimulatePass(stage model.Stage, rows, past int) PassTiming {
	ps := &passState{
		h: h, stage: stage, rows: rows, past: past,
		timing: PassTiming{Stage: stage, Rows: rows, Past: past,
			Layers: make([]LayerTiming, h.plan.Cfg.Model.Layers)},
	}
	h.mu.Lock()
	for li := range ps.timing.Layers {
		ps.schedule(li)
	}
	h.mu.Unlock()
	ps.timing.Makespan = ps.computeFree
	return ps.timing
}

// KVBudget exposes the plan's KV capacity for gateway admission.
func (h *Host) KVBudget() units.Bytes { return h.plan.KVBudget() }

// Plan returns the host's resolved tier layout.
func (h *Host) Plan() *Plan { return h.plan }

// HostSnapshot is the runtime's point-in-time accounting across tiers,
// link, KV policy, and pass clock.
type HostSnapshot struct {
	Tiers []TierSnapshot
	Xfer  XferStats

	KVSpills, KVEvictions, KVRefetches, KVOverflows uint64
	WeightPacks                                     uint64
	Prefills, Decodes                               uint64

	LastPass                                 PassTiming
	TotalStream, TotalCompute, TotalMakespan units.Seconds
}

// Snapshot returns the current accounting.
func (h *Host) Snapshot() HostSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HostSnapshot{
		Tiers:       h.mgr.Snapshot(),
		Xfer:        h.xfer.Stats(),
		KVSpills:    h.pt.spills,
		KVEvictions: h.pt.evictions,
		KVRefetches: h.pt.refetches,
		KVOverflows: h.pt.overflows,
		WeightPacks: h.weightPacks,
		Prefills:    h.prefills,
		Decodes:     h.decodes,
		LastPass:    h.lastPass,
		TotalStream: h.totalStream, TotalCompute: h.totalCompute, TotalMakespan: h.totalMakespan,
	}
}

// Prometheus renders the runtime's counters in Prometheus text format;
// the gateway appends it to its own /metrics page.
func (h *Host) Prometheus() string {
	s := h.Snapshot()
	var b strings.Builder
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	gauge("lia_offload_tier_capacity_bytes", "Installed capacity per memory tier.")
	for _, ts := range s.Tiers {
		fmt.Fprintf(&b, "lia_offload_tier_capacity_bytes{tier=%q} %d\n", ts.Tier, int64(ts.Capacity))
	}
	gauge("lia_offload_tier_used_bytes", "Current residency per memory tier.")
	for _, ts := range s.Tiers {
		fmt.Fprintf(&b, "lia_offload_tier_used_bytes{tier=%q} %d\n", ts.Tier, int64(ts.Used))
	}
	gauge("lia_offload_tier_peak_bytes", "Peak residency per memory tier.")
	for _, ts := range s.Tiers {
		fmt.Fprintf(&b, "lia_offload_tier_peak_bytes{tier=%q} %d\n", ts.Tier, int64(ts.Peak))
	}
	counterVec := func(name, help string, val func(TierSnapshot) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, ts := range s.Tiers {
			fmt.Fprintf(&b, "%s{tier=%q} %d\n", name, ts.Tier, val(ts))
		}
	}
	counterVec("lia_offload_tier_reads_total", "Read accesses per tier.", func(t TierSnapshot) uint64 { return t.Reads })
	counterVec("lia_offload_tier_writes_total", "Write accesses per tier.", func(t TierSnapshot) uint64 { return t.Writes })
	counterVec("lia_offload_tier_read_bytes_total", "Bytes read per tier.", func(t TierSnapshot) uint64 { return uint64(t.BytesRead) })
	counterVec("lia_offload_tier_written_bytes_total", "Bytes written per tier.", func(t TierSnapshot) uint64 { return uint64(t.BytesWritten) })
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("lia_offload_kv_spills_total", "KV pages spilled from the KV tier to CXL.", s.KVSpills)
	counter("lia_offload_kv_evictions_total", "KV pages evicted from the tiered runtime.", s.KVEvictions)
	counter("lia_offload_kv_refetches_total", "Evicted KV pages re-fetched on later access.", s.KVRefetches)
	counter("lia_offload_weight_packs_total", "Weight pack (layout conversion) events.", s.WeightPacks)
	counter("lia_offload_link_transfers_total", "Host-to-GPU transfers on the virtual link.", s.Xfer.Transfers)
	counter("lia_offload_link_bytes_total", "Bytes moved host-to-GPU on the virtual link.", uint64(s.Xfer.LinkBytes))
	counter("lia_offload_passes_prefill_total", "Prefill passes priced by the virtual clock.", s.Prefills)
	counter("lia_offload_passes_decode_total", "Decode passes priced by the virtual clock.", s.Decodes)
	fmt.Fprintf(&b, "# HELP lia_offload_link_busy_seconds_total Virtual link occupancy.\n# TYPE lia_offload_link_busy_seconds_total counter\nlia_offload_link_busy_seconds_total %g\n", float64(s.Xfer.LinkBusy))
	return b.String()
}

// passState is one forward pass's hook receiver: it owns the pass's
// virtual-clock schedule and its prefetch lookahead. A single goroutine
// drives it (the executor contract), so only the shared host state it
// touches is locked.
type passState struct {
	h          *Host
	cacheID    int64
	stage      model.Stage
	rows, past int

	linkFree         units.Seconds
	computeFree      units.Seconds
	lastComputeStart units.Seconds
	timing           PassTiming
	pending          map[int]*prefetchTicket
}

var _ llm.PassHooks = (*passState)(nil)

// schedule places layer li on the pass's virtual clock. Callers hold
// h.mu (computeDur's memo).
func (ps *passState) schedule(li int) {
	h := ps.h
	pinned := h.plan.Pinned(li)
	lt := LayerTiming{Layer: li, Pinned: pinned}
	if !pinned {
		// Double buffering: the stream may start once the link frees and
		// the previous layer's compute has begun (its buffer is released).
		start := ps.linkFree
		if ps.lastComputeStart > start {
			start = ps.lastComputeStart
		}
		lt.StreamStart = start
		lt.StreamFinish = start + h.layerStreamCost
		ps.linkFree = lt.StreamFinish
		ps.timing.Stream += h.layerStreamCost
	}
	cs := ps.computeFree
	if !pinned && lt.StreamFinish > cs {
		cs = lt.StreamFinish
	}
	dur := h.computeDur(ps.stage, ps.rows, ps.past, pinned)
	lt.ComputeStart = cs
	lt.ComputeFinish = cs + dur
	ps.computeFree = lt.ComputeFinish
	ps.lastComputeStart = cs
	ps.timing.Compute += dur
	if li < len(ps.timing.Layers) {
		ps.timing.Layers[li] = lt
	}
}

// LayerStart implements llm.PassHooks: schedule the layer, launch the
// next streamed layer's prefetch, then wait for this layer's own
// prefetch — the synchronization point that makes Optimization-2's
// overlap real rather than notional.
func (ps *passState) LayerStart(li int) {
	h := ps.h
	var wait *prefetchTicket
	h.mu.Lock()
	ps.schedule(li)
	if !h.plan.Pinned(li) {
		if t, ok := ps.pending[li]; ok {
			wait = t
			delete(ps.pending, li)
		} else {
			wait = h.issueLocked(li)
		}
	}
	if nl := li + 1; nl < h.plan.Cfg.Model.Layers && !h.plan.Pinned(nl) {
		if _, ok := ps.pending[nl]; !ok {
			ps.pending[nl] = h.issueLocked(nl)
		}
	}
	h.mu.Unlock()
	if wait != nil {
		<-wait.done
	}
}

// WeightPacked implements llm.PassHooks: a one-time layout conversion
// writes the packed copy beside the source weights.
func (ps *passState) WeightPacked(li int, s model.Sublayer) {
	h := ps.h
	h.mu.Lock()
	h.weightPacks++
	h.mu.Unlock()
	if w := h.weight(li, s); w != nil {
		h.mgr.Write(w, w.Bytes())
	}
}

// WeightAccess implements llm.PassHooks: compute reads the staged HBM
// copy for streamed layers, the resident allocation for pinned ones.
func (ps *passState) WeightAccess(li int, s model.Sublayer) {
	h := ps.h
	w := h.weight(li, s)
	if w == nil {
		return
	}
	if h.plan.Pinned(li) {
		h.mgr.Read(w, w.Bytes())
	} else {
		h.mgr.ReadTier(HBM, w.Bytes())
	}
}

// KVWrite implements llm.PassHooks: grow the cache's page set at the
// first layer (pages span all layers), then charge the append.
func (ps *passState) KVWrite(li, rows int) {
	h := ps.h
	if li == 0 {
		h.mu.Lock()
		_ = h.pt.ensure(ps.cacheID, ps.past+ps.rows) // overflow is counted, not fatal
		h.mu.Unlock()
	}
	h.mgr.WriteTier(h.plan.KVTier, h.plan.Cfg.Model.KVBytesPerLayer(1, rows))
}

// KVRead implements llm.PassHooks: touch the cache MRU at the first
// layer, charge the attention scan.
func (ps *passState) KVRead(li, rows int) {
	h := ps.h
	if li == 0 {
		h.mu.Lock()
		h.pt.touch(ps.cacheID)
		h.mu.Unlock()
	}
	h.mgr.ReadTier(h.plan.KVTier, h.plan.Cfg.Model.KVBytesPerLayer(1, rows))
}

// EndPass implements llm.PassHooks: seal the pass's schedule into the
// host totals.
func (ps *passState) EndPass() {
	ps.timing.Makespan = ps.computeFree
	h := ps.h
	h.mu.Lock()
	if ps.stage == model.Prefill {
		h.prefills++
	} else {
		h.decodes++
	}
	h.lastPass = ps.timing
	h.totalStream += ps.timing.Stream
	h.totalCompute += ps.timing.Compute
	h.totalMakespan += ps.timing.Makespan
	h.mu.Unlock()
}
