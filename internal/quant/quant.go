// Package quant implements INT8 post-training quantization for the
// functional engine and the quantized-deployment studies: symmetric
// per-output-channel weight quantization, asymmetric per-span activation
// quantization (one scale and zero point per group of rows: one
// sequence's rows in a pass), and a fused Linear that runs the integer
// product through AMX TDPBUSD — the host's tile unit where it has one,
// the emulator elsewhere — and dequantizes with the zero-point
// correction.
//
// The paper positions quantization as the orthogonal compression
// alternative to offloading (§1: even 4-bit OPT-175B still needs two
// H100s); this package lets the reproduction quantify that trade-off —
// INT8 halves parameter bytes (and therefore every D_Y transfer and
// memory footprint in the analytical model) at a bounded accuracy cost
// the functional engine can measure directly.
package quant

import (
	"fmt"
	"math"
	"sync"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/tensor"
)

// Weights is an INT8 weight matrix with per-output-channel scales.
type Weights struct {
	// Q holds the quantized values, row-major K×N.
	Q []int8
	// K and N are the logical dimensions.
	K, N int
	// ColScales holds one dequantization scale per output column.
	ColScales []float32
	// ColSums caches Σ_k Q[k][j], needed for the activation zero-point
	// correction.
	ColSums []int32
	// pre is the prepacked form of Q, built once at quantization time so
	// Linear never re-packs the static operand: the VNNI tile image plus
	// the decoded column-major lane view amx's fast path consumes
	// (PrepackINT8 builds both; packing is layout-only, so results are
	// unchanged). Nil only for hand-built Weights, which Linear rejects.
	pre *amx.PrepackedINT8
}

// QuantizeWeights quantizes w (K×N float32) symmetrically per output
// column: q = round(w / s_j), s_j = max|w[:,j]| / 127.
func QuantizeWeights(w tensor.Matrix) Weights {
	k, n := w.Rows, w.Cols
	out := Weights{
		Q:         make([]int8, k*n),
		K:         k,
		N:         n,
		ColScales: make([]float32, n),
		ColSums:   make([]int32, n),
	}
	for j := 0; j < n; j++ {
		var maxAbs float32
		for i := 0; i < k; i++ {
			v := w.At(i, j)
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1
		}
		out.ColScales[j] = scale
		for i := 0; i < k; i++ {
			q := int32(math.RoundToEven(float64(w.At(i, j) / scale)))
			if q > 127 {
				q = 127
			}
			if q < -127 {
				q = -127
			}
			out.Q[i*n+j] = int8(q)
			out.ColSums[j] += q
		}
	}
	pre, err := amx.PrepackINT8(out.Q, k, n)
	if err != nil {
		panic(fmt.Sprintf("quant: prepack: %v", err))
	}
	out.pre = pre
	return out
}

// QuantizeWeightsSparse prunes w to the requested block-sparsity at the
// INT8 tile granularity, quantizes the pruned matrix per output column,
// and prepacks it through amx.PrepackINT8Sparse so the TDPBUSD drivers
// skip the zeroed blocks. A pruned element quantizes to code 0 exactly
// (round(0/s) = 0), so the sparse image's skipped blocks contribute the
// same +0 the dense kernel would compute — results are bit-identical to
// QuantizeWeights over the pruned matrix.
func QuantizeWeightsSparse(w tensor.Matrix, sparsity float64) (Weights, SparseStats) {
	pruned, stats := PruneBlocksINT8(w, sparsity)
	out := QuantizeWeights(pruned)
	pre, err := amx.PrepackINT8Sparse(out.Q, out.K, out.N)
	if err != nil {
		panic(fmt.Sprintf("quant: sparse prepack: %v", err))
	}
	out.pre = pre
	return out, stats
}

// BlockStats reports the prepacked image's (nonzero, total) tile-block
// counts — (0, 0) for hand-built Weights with no prepacked form. For
// dense-prepacked weights every block counts as nonzero.
func (w Weights) BlockStats() (nz, total int) {
	if w.pre == nil {
		return 0, 0
	}
	return w.pre.BlockStats()
}

// FootprintSparse models the bytes a block-sparse INT8 encoding ships:
// the nonzero blocks' int8 payload, one bitmap bit per block, and the
// full per-column side tables (scales + column sums — both are needed
// for dequantization regardless of sparsity).
func (w Weights) FootprintSparse() int {
	nz, total := w.BlockStats()
	side := 4*len(w.ColScales) + 4*len(w.ColSums)
	if total == 0 {
		return len(w.Q) + side
	}
	payload := len(w.Q) * nz / total
	return payload + (total+7)/8 + side
}

// Bytes returns the quantized storage footprint: the int8 values plus
// every per-column side table the format ships — the float32 scales AND
// the int32 column sums (the zero-point correction cannot be applied
// without them, so a serving deployment stores them alongside the
// weights; earlier revisions omitted them and under-counted by 4 bytes
// per output column).
func (w Weights) Bytes() int { return len(w.Q) + 4*len(w.ColScales) + 4*len(w.ColSums) }

// Footprint is the serving-footprint accessor the planning layers
// (memplan scaled plans, offload traffic accounting, gateway metrics)
// read: the bytes a deployment must hold resident for this weight —
// identical to Bytes(). The dense BF16 image it replaces costs 2·K·N, so
// the INT8 scale factor is (K·N + 8·N) / (2·K·N) ≈ ½ for K ≫ 8.
func (w Weights) Footprint() int { return w.Bytes() }

// Activations is an asymmetric uint8 quantization of an activation
// matrix, one mapping over all its rows: x ≈ scale · (q − zero).
type Activations struct {
	// Q holds the quantized values, row-major M×K.
	Q []uint8
	// M and K are the logical dimensions.
	M, K int
	// Scale and Zero define the affine mapping.
	Scale float32
	// Zero is the uint8 zero point.
	Zero uint8
}

// QuantizeActivations maps x's observed range onto [0, 255].
func QuantizeActivations(x tensor.Matrix) Activations {
	out := Activations{Q: make([]uint8, len(x.Data)), M: x.Rows, K: x.Cols}
	out.Scale, out.Zero = quantizeInto(out.Q, x.Data)
	return out
}

// quantizeInto writes the codes of xs into q (len(xs) values) and returns
// the mapping's scale and zero point: the range is xs's least and
// greatest non-NaN values widened to include 0. tensor.MinMax may return
// a zero extreme with either sign; neither can move a bit here, because
// ±0 passes both clamps unchanged, maxV − (±0) is maxV (and ±0 − ±0 a
// zero, whose scale becomes 1), and −(±0)/scale rounds to zero point 0.
func quantizeInto(q []uint8, xs []float32) (scale float32, zero uint8) {
	minV, maxV := tensor.MinMax(xs)
	if minV > 0 {
		minV = 0
	}
	if maxV < 0 {
		maxV = 0
	}
	scale = (maxV - minV) / 255
	if scale == 0 {
		scale = 1
	}
	zero = uint8(math.RoundToEven(float64(-minV / scale)))
	tensor.QuantizeU8(q, xs, scale, int32(zero))
	return scale, zero
}

// Linear computes y = x·W into dst (x.Rows × N, every element
// overwritten) using the AMX INT8 pipeline: each group of x's rows is
// quantized to uint8 with its own scale s_x and zero point z_x, the
// integer product of all rows runs through TDPBUSD at once, and each
// row is dequantized with its group's zero-point correction
//
//	y[i][j] = s_x · s_j · (Σ_k q_x[i][k]·q_w[k][j] − z_x · Σ_k q_w[k][j]).
//
// groups lists the groups' row counts in row order and must sum to
// x.Rows. A group's outputs are bit for
// bit those of Linear over its rows alone: its codes come from its own
// rows by the same quantizeInto, the integer dot products are exact and
// each depends on its own row only, and the dequantization is the same
// float32 expression of the same operands. It returns the AMX cycles
// consumed.
func Linear(dst, x tensor.Matrix, w Weights, groups []int) (uint64, error) {
	if x.Cols != w.K || dst.Rows != x.Rows || dst.Cols != w.N {
		return 0, fmt.Errorf("quant: linear shape mismatch %dx%d · %dx%d into %dx%d", x.Rows, x.Cols, w.K, w.N, dst.Rows, dst.Cols)
	}
	if w.pre == nil {
		return 0, fmt.Errorf("quant: int8 weights missing prepacked image (use QuantizeWeights)")
	}
	rows := 0
	for _, g := range groups {
		if g <= 0 {
			return 0, fmt.Errorf("quant: row group of %d rows", g)
		}
		rows += g
	}
	if rows != x.Rows {
		return 0, fmt.Errorf("quant: row groups cover %d of %d rows", rows, x.Rows)
	}
	buf := linearScratch.Get().(*linearBuffers)
	defer linearScratch.Put(buf)
	codes, acc, factor := fit(&buf.codes, len(x.Data)), fit(&buf.acc, x.Rows*w.N), fit(&buf.factor, w.N)
	maps := fit(&buf.maps, len(groups))
	r := 0
	for i, g := range groups {
		lo, hi := r*x.Cols, (r+g)*x.Cols
		maps[i].scale, maps[i].zero = quantizeInto(codes[lo:hi], x.Data[lo:hi])
		r += g
	}
	cycles, err := amx.MatmulINT8PackedInto(acc, codes, x.Rows, w.pre)
	if err != nil {
		return 0, err
	}
	r = 0
	for i, g := range groups {
		// s_x·s_j once per column: Go evaluates s_x·s_j·v left to right and
		// there is no add to fuse, so hoisting the first product rounds
		// exactly as the per-element expression did.
		for j, s := range w.ColScales {
			factor[j] = maps[i].scale * s
		}
		for ; g > 0; g-- {
			tensor.DequantizeRow(dst.Row(r), acc[r*w.N:(r+1)*w.N], factor, w.ColSums, int32(maps[i].zero))
			r++
		}
	}
	return cycles, nil
}

// linearBuffers is Linear's scratch: the activation codes, the int32
// accumulator, the per-column dequantisation factors and each row
// group's mapping.
type linearBuffers struct {
	codes  []uint8
	acc    []int32
	factor []float32
	maps   []affine
}

// affine is one row group's activation mapping.
type affine struct {
	scale float32
	zero  uint8
}

// linearScratch recycles Linear's buffers across calls.
var linearScratch = sync.Pool{New: func() any { return new(linearBuffers) }}

// fit returns *buf resized to n elements, growing it when it is short.
func fit[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// MaxAbsError returns the largest absolute elementwise difference between
// two equally-shaped matrices. It is a test oracle: the quant and llm
// tests measure quantization error with it, and no program calls it.
func MaxAbsError(a, b tensor.Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var worst float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}
