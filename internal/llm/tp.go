// Tensor-parallel executor mode: one functional model sharded across K
// simulated GPUs, the §7.8/§8 multi-GPU extension made real. Every
// parameter sublayer is column-parallel — each virtual rank owns whole
// attention heads of the QKV projection and contiguous column slices of
// the out-projection and FFN matrices — and the rank outputs are
// reassembled by an all-gather, which is pure concatenation. Because
// every output element keeps exactly the unsharded kernel's reduction
// over the full inner dimension (no cross-rank partial sums are ever
// added together), tokens are bit-identical to the unsharded executor on
// every offloading policy, on the fused batch-decode path, and under
// speculative decoding.
//
// The communication a real sharding would pay is priced, not performed:
// each decoder layer charges the analytic DGX model's two ring
// all-reduces on the hidden states (core.TPAllReduceTime, the same
// calibrated formula engine's MultiGPU baseline integrates) into a
// virtual comm clock the TPStats expose. Pricing is observational only —
// it never touches the computed values.
package llm

import (
	"fmt"
	"sync/atomic"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/tensor"
	"github.com/lia-sim/lia/internal/units"
)

// colSpan maps one contiguous column range of a rank's shard back to its
// position in the full (unsharded) output matrix.
type colSpan struct {
	dst   int // first column in the full output
	width int
}

// tpShard is one rank's slice of a parameter matrix: a dense op over the
// materialized column slice (packed lazily per route and shared by forks,
// exactly like an unsharded weight) and where its columns land in the
// full output.
type tpShard struct {
	op    *denseOp
	spans []colSpan
}

// tpOp is the tensor-parallel combinator: one parameter sublayer split
// across the ranks, each shard an ordinary dense op.
type tpOp struct {
	tp     *tpState
	shards []tpShard
	fullN  int
}

// tpState is the executor-family-wide tensor-parallel ledger: the
// virtual communication clock. Forks share it; the counters are atomic.
type tpState struct {
	ways int
	peer hw.LinkSpec

	allReduces atomic.Int64
	commPs     atomic.Int64 // virtual comm time in picoseconds (integer, so accumulation is exact and race-free)
}

// TPStats reports the tensor-parallel mode's virtual communication
// ledger.
type TPStats struct {
	// Ways is the shard count (0 when TP is off).
	Ways int
	// AllReduces counts the priced ring all-reduces (two per decoder
	// layer per forward pass, after the out-projection and FC2 — the
	// analytic MultiGPU baseline's schedule).
	AllReduces int64
	// Comm is the accumulated virtual all-reduce time.
	Comm units.Seconds
}

// EnableTP shards every parameter sublayer column-parallel across `ways`
// virtual GPUs linked by `peer` (the all-reduce fabric the virtual comm
// clock prices). The query heads, KV heads, FFN hidden width, and model
// width must all divide evenly by `ways`. TP requires the dense BF16
// tier without a memory host; enabling a compressed tier afterwards
// turns TP back off.
func (e *Executor) EnableTP(ways int, peer hw.LinkSpec) error {
	cfg := e.Model.Cfg
	if ways < 2 {
		return fmt.Errorf("llm: tensor parallelism needs ≥2 ways, got %d", ways)
	}
	if e.tier.name != tierDense {
		return fmt.Errorf("llm: tensor parallelism requires the dense BF16 tier (got %s)", e.QuantTier())
	}
	if e.Mem != nil {
		return fmt.Errorf("llm: tensor parallelism does not compose with a memory host")
	}
	if cfg.Heads%ways != 0 || cfg.KVHeads%ways != 0 {
		return fmt.Errorf("llm: %d query / %d KV heads not divisible by %d ways", cfg.Heads, cfg.KVHeads, ways)
	}
	if cfg.DFF%ways != 0 || cfg.DModel%ways != 0 {
		return fmt.Errorf("llm: DFF %d / DModel %d not divisible by %d ways", cfg.DFF, cfg.DModel, ways)
	}
	tp := &tpState{ways: ways, peer: peer}
	t := newTier(e.Model, tierDense, false, func(s model.Sublayer, w tensor.Matrix) linearOp {
		op := &tpOp{tp: tp, fullN: w.Cols, shards: make([]tpShard, ways)}
		for r := range op.shards {
			op.shards[r] = materializeShard(w, tpSpans(s, cfg, w.Cols, ways, r))
		}
		return op
	})
	t.tp = tp
	e.tier = t
	return nil
}

// TP reports whether tensor-parallel mode is on.
func (e *Executor) TP() bool { return e.tier.tp != nil }

// TPWays returns the shard count (0 when TP is off).
func (e *Executor) TPWays() int {
	if e.tier.tp == nil {
		return 0
	}
	return e.tier.tp.ways
}

// TPStats returns the virtual communication ledger, aggregated across
// every fork of the executor family.
func (e *Executor) TPStats() TPStats {
	tp := e.tier.tp
	if tp == nil {
		return TPStats{}
	}
	return TPStats{
		Ways:       tp.ways,
		AllReduces: tp.allReduces.Load(),
		Comm:       units.Seconds(float64(tp.commPs.Load()) * 1e-12),
	}
}

// materializeShard copies the listed column spans of w into one matrix,
// in span order.
func materializeShard(w tensor.Matrix, spans []colSpan) tpShard {
	width := 0
	for _, sp := range spans {
		width += sp.width
	}
	m := tensor.New(w.Rows, width)
	for r := 0; r < w.Rows; r++ {
		src := w.Row(r)
		dst := m.Row(r)
		off := 0
		for _, sp := range spans {
			copy(dst[off:off+sp.width], src[sp.dst:sp.dst+sp.width])
			off += sp.width
		}
	}
	return tpShard{op: &denseOp{w: m}, spans: spans}
}

// tpSpans is the sharding table: the columns of sublayer s's full output
// (cols wide) that rank r of `ways` owns.
//
// The fused QKV projection splits by attention heads — rank r owns query
// heads [r·H/w, (r+1)·H/w) and the matching KV heads, so its shard is
// three column ranges of the fused matrix (Q, K, V segments). FC1 splits
// over the FFN hidden width; gated models pair each rank's gate columns
// with its up columns so the elementwise SwiGLU stays rank-local in a
// real deployment (here the gather reassembles the full h1 before the
// activation, which computes the identical values). The out-projection
// and FC2 are column-parallel over the model width: contiguous slices.
func tpSpans(s model.Sublayer, cfg model.Config, cols, ways, r int) []colSpan {
	switch s {
	case model.QKVMapping:
		d, dh := cfg.DModel, cfg.HeadDim()
		qPer := cfg.Heads / ways * dh
		kvPer := cfg.KVHeads / ways * dh
		return []colSpan{
			{dst: r * qPer, width: qPer},                   // query heads
			{dst: d + r*kvPer, width: kvPer},               // key heads
			{dst: d + cfg.KVDim() + r*kvPer, width: kvPer}, // value heads
		}
	case model.FC1:
		per := cfg.DFF / ways
		spans := []colSpan{{dst: r * per, width: per}}
		if cfg.GatedFFN {
			spans = append(spans, colSpan{dst: cfg.DFF + r*per, width: per})
		}
		return spans
	}
	per := cols / ways
	width := per
	if r == ways-1 {
		width = cols - r*per // absorb any remainder (none when ways divides)
	}
	return []colSpan{{dst: r * per, width: width}}
}

// apply runs each rank's shard through the same policy-routed dense op
// the unsharded path uses and gathers (concatenates) the rank outputs
// back into the full output matrix. The dense route's in-place bfloat16
// rounding of x is idempotent, so repeating it per rank leaves later
// ranks' inputs identical to the unsharded call's. After the two
// residual-producing projections the virtual comm clock charges the
// analytic ring all-reduce on the hidden states.
func (o *tpOp) apply(e *Executor, li int, s model.Sublayer, x tensor.Matrix) tensor.Matrix {
	out := tensor.New(x.Rows, o.fullN)
	for _, sh := range o.shards {
		part := sh.op.apply(e, li, s, x)
		off := 0
		for _, sp := range sh.spans {
			for r := 0; r < part.Rows; r++ {
				copy(out.Row(r)[sp.dst:sp.dst+sp.width], part.Row(r)[off:off+sp.width])
			}
			off += sp.width
		}
	}
	if s == model.OutProjection || s == model.FC2 {
		bytes := units.Bytes(x.Rows * e.Model.Cfg.DModel * e.Model.Cfg.BytesPerParam)
		t := core.TPAllReduceTime(o.tp.ways, o.tp.peer, bytes)
		o.tp.allReduces.Add(1)
		o.tp.commPs.Add(int64(float64(t) * 1e12))
	}
	return out
}

// footprint is the shards' sum — the unsharded BF16 image, since the
// ranks partition its columns.
func (o *tpOp) footprint() (total int64) {
	for _, sh := range o.shards {
		total += sh.op.footprint()
	}
	return total
}

func (o *tpOp) blocks() (zero, total int) { return 0, 0 }
