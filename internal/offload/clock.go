package offload

import (
	"sync"

	"github.com/lia-sim/lia/internal/cxl"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/units"
)

// XferEngine is the virtual-clock transfer engine. It models the single
// host↔GPU link as a serially-occupied resource: each transfer starts no
// earlier than both its request time and the moment the link frees, and
// lasts bytes over the effective bandwidth plus the link setup cost —
// exactly the analytic engine's semantics. Transfers sourced from the
// CXL pool run at the pool's size-dependent interleaved bandwidth capped
// by the link (Observation-1), with the pool's extra load-to-use latency
// folded into setup.
type XferEngine struct {
	mu   sync.Mutex
	link hw.LinkSpec
	pool cxl.Pool

	linkFree units.Seconds // virtual time at which the GPU link frees
	fault    LinkFault     // nil = healthy link

	transfers   uint64
	linkBusy    units.Seconds // cumulative GPU-link occupancy
	linkBytes   units.Bytes
	linkFaults  uint64
	linkRetries uint64
}

// LinkFault injects transient host-link degradation into the virtual
// clock: before each GPU-link transfer the engine asks the hook for a
// bandwidth scale (1 = nominal, 0.25 = a link running at a quarter of
// its speed) and a transient error. A non-nil error models a CXL
// expander fault: the attempt occupies the link for its full (scaled)
// duration, is wasted, and the transfer is retried once — so faults
// surface as latency-tail inflation plus LinkFaults/LinkRetries counts,
// never as data corruption (the runtime is observational; tokens are
// untouched).
//
// transfer is the 1-based ordinal of the attempt's transfer, so "every
// k-th transfer faults" plans are a modulo; from and b describe the
// source tier and size. The hook runs under the engine's lock and must
// not call back into it. A scale ≤ 0 is treated as 1 (identity); a nil
// hook — or one that always returns (1, nil) — leaves every virtual
// timestamp exactly as the healthy analytic model prices it.
type LinkFault func(transfer uint64, from Tier, b units.Bytes) (bwScale float64, err error)

// SetLinkFault installs (or, with nil, removes) the link-fault hook.
func (x *XferEngine) SetLinkFault(f LinkFault) {
	x.mu.Lock()
	x.fault = f
	x.mu.Unlock()
}

// NewXferEngine builds a transfer engine over the system's host link and
// CXL pool.
func NewXferEngine(link hw.LinkSpec, pool cxl.Pool) *XferEngine {
	return &XferEngine{link: link, pool: pool}
}

// xferCost returns the duration of a b-byte host→GPU transfer sourced
// from the given tier, independent of link contention. bwScale < 1
// degrades the effective bandwidth (link setup and load-to-use latency
// are latency, not bandwidth, so they do not scale); 1 is the healthy
// analytic cost.
func (x *XferEngine) xferCost(from Tier, b units.Bytes, bwScale float64) units.Seconds {
	switch from {
	case CXL:
		bw := x.pool.GPUTransferBW(x.link, b)
		return units.TransferTime(b, scaleBW(bw, bwScale), x.link.Setup+x.pool.ExtraLatency())
	default: // DDR (and HBM staging, which is free of host-link cost)
		bw := x.link.BW
		if x.pool.DDRBW > 0 && x.pool.DDRBW < bw {
			bw = x.pool.DDRBW
		}
		return units.TransferTime(b, scaleBW(bw, bwScale), x.link.Setup)
	}
}

func scaleBW(bw units.BytesPerSecond, s float64) units.BytesPerSecond {
	if s <= 0 || s == 1 {
		return bw
	}
	return units.BytesPerSecond(float64(bw) * s)
}

// HostToGPU schedules a b-byte upload from the given host tier onto the
// GPU link, requested at virtual time `at`. It returns the transfer's
// start and finish times; the link is occupied for the whole interval.
// With a LinkFault hook installed, the attempt runs at the hook's
// bandwidth scale, and a hook error wastes one full scaled attempt on
// the link before the (successful) retry — both attempts occupy the
// link serially, exactly like a real transient expander fault.
func (x *XferEngine) HostToGPU(from Tier, b units.Bytes, at units.Seconds) (start, finish units.Seconds) {
	x.mu.Lock()
	defer x.mu.Unlock()
	scale, faultErr := 1.0, error(nil)
	if x.fault != nil {
		scale, faultErr = x.fault(x.transfers+1, from, b)
	}
	cost := x.xferCost(from, b, scale)
	if faultErr != nil {
		// One wasted attempt plus the retry; count both sides.
		cost *= 2
		x.linkFaults++
		x.linkRetries++
	}
	start = at
	if x.linkFree > start {
		start = x.linkFree
	}
	finish = start + cost
	x.linkFree = finish
	x.transfers++
	x.linkBusy += cost
	x.linkBytes += b
	return start, finish
}

// LinkFree returns the virtual time at which the GPU link next frees.
func (x *XferEngine) LinkFree() units.Seconds {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.linkFree
}

// Reset rewinds the virtual link clock to zero, keeping the cumulative
// traffic counters. Each engine pass schedules from a fresh origin.
func (x *XferEngine) Reset() {
	x.mu.Lock()
	x.linkFree = 0
	x.mu.Unlock()
}

// XferStats is the engine's cumulative traffic accounting.
type XferStats struct {
	Transfers   uint64
	LinkBusy    units.Seconds
	LinkBytes   units.Bytes
	LinkFaults  uint64 // transient faults the LinkFault hook injected
	LinkRetries uint64 // retried attempts (one per fault)
}

// Stats returns the cumulative transfer accounting.
func (x *XferEngine) Stats() XferStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return XferStats{
		Transfers: x.transfers, LinkBusy: x.linkBusy, LinkBytes: x.linkBytes,
		LinkFaults: x.linkFaults, LinkRetries: x.linkRetries,
	}
}
