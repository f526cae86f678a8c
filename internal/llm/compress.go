// Compressed weight tiers: the INT8, block-sparse and INT4 LUT-GEMV
// serving modes. Each Enable* prunes/quantizes and prepacks every
// parameter sublayer eagerly into a new tier of linearOps (tier.go). The
// sparse and INT4 kernels compute every output row from its own input
// row; INT8's per-span activation scale couples the rows within one
// span (tier.rowCoupled) but not rows of different spans. All of them
// run the fused batch-decode path with no fallback.
package llm

import (
	"fmt"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/quant"
	"github.com/lia-sim/lia/internal/tensor"
)

// EnableINT8 quantizes every parameter-sublayer weight matrix to INT8
// with per-output-channel scales (and prepacks them into the VNNI tile
// layout, once); subsequent forward passes run those sublayers through
// the AMX TDPBUSD pipeline (W8A8). Attention scoring (the KV cache) stays
// BF16, matching the §6 observation that it is the precision- and
// bandwidth-sensitive path. Enabling replaces any other tier.
func (e *Executor) EnableINT8() {
	e.tier = newTier(e.Model, tierINT8, true, func(w tensor.Matrix) linearOp {
		return &int8Op{w: quant.QuantizeWeights(w)}
	})
}

// EnableSparseINT8 combines block pruning with INT8 quantization: every
// parameter matrix is pruned to the requested block-sparsity at the INT8
// tile granularity, quantized per output column, and prepacked through
// amx.PrepackINT8Sparse, whose zero-block bitmap skips the pruned
// blocks' TileLoads and TDPBUSD issues. The skip is exact — a zero
// integer block contributes +0 to every accumulator — so tokens are
// bit-identical to dense INT8 compute over the same pruned weights.
// Enabling replaces any other compressed tier.
func (e *Executor) EnableSparseINT8(sparsity float64) {
	e.tier = newTier(e.Model, tierSparseINT8, true, func(w tensor.Matrix) linearOp {
		q, _ := quant.QuantizeWeightsSparse(w, sparsity)
		return &int8Op{w: q, sparse: true}
	})
}

// int8Op is one INT8 parameter matrix; sparse marks the block-pruned
// variant whose prepacked image carries a zero-block bitmap.
type int8Op struct {
	w      quant.Weights
	sparse bool
}

// apply quantizes each span's rows of x with their own activation scale
// (the pass's row groups in e's workspace) and multiplies all of them in
// one TDPBUSD product.
func (o *int8Op) apply(e *Executor, _ int, _ model.Sublayer, x, dst tensor.Matrix) (tensor.Matrix, error) {
	cycles, err := quant.Linear(dst, x, o.w, e.ws.groups)
	if err != nil {
		return dst, fmt.Errorf("llm: int8 linear: %w", err)
	}
	e.Stats.Int8Matmuls++
	e.Stats.AMXCycles += cycles
	if o.sparse {
		zero, _ := o.blocks()
		e.Stats.SparseMatmuls++
		e.Stats.SparseBlocksSkipped += uint64(zero)
	}
	return dst, nil
}

// footprint prices the packed format with its side tables; the sparse
// variant ships only the nonzero blocks' payload plus the bitmap.
func (o *int8Op) footprint() int64 {
	if o.sparse {
		return int64(o.w.FootprintSparse())
	}
	return int64(o.w.Footprint())
}

func (o *int8Op) blocks() (zero, total int) {
	nz, total := o.w.BlockStats()
	return total - nz, total
}

// EnableSparse prunes every parameter-sublayer weight matrix to the
// requested block-sparsity at the AMX tile granularity (lowest-magnitude
// blocks first) and prepacks the sparse-bitmap images; subsequent passes
// skip the zeroed blocks on the CPU route and multiply the same pruned
// weights densely on the GPU route, so tokens are policy-invariant
// exactly like the dense tier. Enabling replaces any other compressed
// tier. Attention scoring (the KV cache) stays dense BF16.
func (e *Executor) EnableSparse(sparsity float64) {
	e.tier = newTier(e.Model, tierSparse, false, func(w tensor.Matrix) linearOp {
		pruned, _ := quant.PruneBlocks(w, sparsity)
		pre, err := amx.PrepackBF16Sparse(pruned.Data, pruned.Rows, pruned.Cols)
		if err != nil {
			panic(fmt.Sprintf("llm: sparse prepack: %v", err))
		}
		return &sparseOp{pre: pre, gpu: tensor.RoundedBF16(pruned)}
	})
}

// sparseOp is one block-pruned parameter matrix in both routed forms:
// the sparse-bitmap VNNI image the CPU route runs (zero tile blocks skip
// their TileLoads and TDP) and the bf16-rounded pruned copy the dense
// (GPU) route multiplies (tensor.RoundedBF16, like denseOp's). Both are
// built once at enable time and immutable afterwards, so forks share
// them.
type sparseOp struct {
	pre *amx.Prepacked
	gpu tensor.Operand
}

func (o *sparseOp) apply(e *Executor, _ int, s model.Sublayer, x, dst tensor.Matrix) (tensor.Matrix, error) {
	if !e.Policy.OnCPU(s) {
		return e.denseBF16(s, x, o.gpu, dst)
	}
	zero, _ := o.blocks()
	e.Stats.SparseMatmuls++
	e.Stats.SparseBlocksSkipped += uint64(zero)
	return dst, e.tallyAMX(amx.MatmulBF16PackedInto(dst.Data, x.Data, x.Rows, o.pre))
}

// footprint prices the compressed nonzero-block BF16 payload plus bitmap.
func (o *sparseOp) footprint() int64 {
	zero, total := o.blocks()
	return int64(quant.SparseFootprint(o.pre.K, o.pre.N, quant.SparseStats{ZeroBlocks: zero, TotalBlocks: total}))
}

func (o *sparseOp) blocks() (zero, total int) {
	nz, total := o.pre.BlockStats()
	return total - nz, total
}

// EnableINT4LUT quantizes every parameter-sublayer weight matrix to the
// INT4 group format (group ≤ 0 selects quant.DefaultGroupINT4) and runs
// those sublayers through the LUT-GEMV kernel regardless of policy —
// like INT8, the compressed kernel replaces both routes. Enabling
// replaces any other compressed tier.
func (e *Executor) EnableINT4LUT(group int) {
	e.tier = newTier(e.Model, tierINT4, false, func(w tensor.Matrix) linearOp {
		q, err := quant.QuantizeINT4(w, group)
		if err != nil {
			panic(fmt.Sprintf("llm: int4 quantize: %v", err))
		}
		return &int4Op{w: q}
	})
}

// int4Op is one INT4 group-quantized parameter matrix.
type int4Op struct{ w quant.WeightsINT4 }

func (o *int4Op) apply(e *Executor, _ int, _ model.Sublayer, x, dst tensor.Matrix) (tensor.Matrix, error) {
	cycles, err := quant.LinearINT4LUT(dst, x, o.w)
	if err != nil {
		return dst, fmt.Errorf("llm: int4 linear: %w", err)
	}
	e.Stats.Int4Matmuls++
	e.Stats.AMXCycles += cycles
	return dst, nil
}

func (o *int4Op) footprint() int64          { return int64(o.w.Footprint()) }
func (o *int4Op) blocks() (zero, total int) { return 0, 0 }

// INT8 reports whether quantized mode is on (either INT8 tier).
func (e *Executor) INT8() bool { return e.tier.name == tierINT8 || e.tier.name == tierSparseINT8 }

// QuantTier names the active weight tier for metrics and bench labels.
func (e *Executor) QuantTier() string { return e.tier.name }

// WeightFootprint returns the serving footprint in bytes of the active
// weight tier across every decoder layer's parameter matrices — the
// number the gateway's lia_quant_weight_bytes gauge and the bench rows
// report. Dense and sparse price the BF16 image a deployment ships (2
// bytes per element; sparse prices the compressed nonzero-block payload
// plus bitmap), INT8/INT4 their packed formats with side tables. The
// embedding is excluded: it stays dense in every tier.
func (e *Executor) WeightFootprint() int64 {
	var total int64
	e.tier.each(func(op linearOp) { total += op.footprint() })
	return total
}

// SparseSkipFraction reports the aggregate zero-block fraction across
// the sparse tier's weights (0 when neither sparse tier is on) — the
// measured sparsity the analytic model's (1 − s) scaling is calibrated
// against, read from the prepacked images' bitmaps: the thing the kernel
// skips by. Covers both the BF16 block-sparse tier and the block-pruned
// INT8 tier.
func (e *Executor) SparseSkipFraction() float64 {
	var zero, total int
	e.tier.each(func(op linearOp) {
		z, t := op.blocks()
		zero += z
		total += t
	})
	if zero == 0 {
		return 0
	}
	return float64(zero) / float64(total)
}
