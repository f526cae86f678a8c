package amx

import (
	"fmt"

	"github.com/lia-sim/lia/internal/team"
	"github.com/lia-sim/lia/internal/tensor"
)

// INT4 LUT-GEMV tier (SAIL-style): the decode path's single-row GEMV over
// 4-bit group-quantized weights. SAIL, whose SRAM compute has no
// multiplier, precomputes for each activation element x[k] the 16
// products x[k]·(c−8), one per nibble code c, and resolves every weight
// by a table lookup. Each table entry is one float32 product rounded
// once, so this kernel computes the entry a weight would look up in a
// vector register instead — the weight value c−8 widened exactly to
// float32, one multiply — and adds it where the lookup's result went:
// the same terms in the same order, the same bits (DESIGN.md §12). The
// cycles model (PredictCycles) prices SAIL's table design, the one
// model.QuantSpec's analytic tier describes.
//
// Numerics (the tier's documented tolerance): y[j] = Σ_g s(g,j) · Σ_{k∈g}
// x[k]·(q[k][j]−8), i.e. the group scale is factored out of the inner
// sum. That is not the same rounding order as dequantize-then-GEMM, so
// results match a dequantized dense reference to a small float tolerance
// rather than bit-for-bit; the golden-corpus suite pins that the emitted
// tokens are identical.
const (
	// lutVecLanes is the modeled SIMD width (f32 lanes per 512-bit
	// vector) the cycles model charges lookups and FMAs at.
	lutVecLanes = 16
)

// PrepackedINT4 is a right-hand INT4 group-quantized GEMV operand in the
// kernel's runtime layout, K-major like the storage format: the weight
// values code−8 one per byte as row-major K×N int8 (row k is the row
// activation element k scales), and the group scales bf16-pre-rounded to
// float32, row-major groups×N. The storage-format footprint (packed
// nibbles + 2-byte scales) is what internal/quant accounts; this image is
// compute scratch.
type PrepackedINT4 struct {
	// K and N are the logical dimensions, Group the quantization group
	// length along K (the last group may be short).
	K, N, Group int
	groups      int // ceilDiv(K, Group)
	q           []int8
	scales      []float32
}

// PrepackINT4LUT builds the INT4 kernel's operand from row-major nibble
// codes (k×n, each 0..15 encoding the signed weight code−8) and row-major
// group scales (ceil(k/group)×n float32; they are bf16-rounded here, the
// precision the storage format keeps).
func PrepackINT4LUT(codes []uint8, k, n, group int, scales []float32) (*PrepackedINT4, error) {
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("amx: int4 prepack dimensions must be positive, got %dx%d", k, n)
	}
	if group <= 0 {
		return nil, fmt.Errorf("amx: int4 group size must be positive, got %d", group)
	}
	if len(codes) != k*n {
		return nil, fmt.Errorf("amx: int4 prepack code count %d does not match %dx%d", len(codes), k, n)
	}
	groups := ceilDiv(k, group)
	if len(scales) != groups*n {
		return nil, fmt.Errorf("amx: int4 prepack scale count %d does not match %d groups x %d cols", len(scales), groups, n)
	}
	w := &PrepackedINT4{K: k, N: n, Group: group, groups: groups,
		q: make([]int8, k*n), scales: make([]float32, groups*n)}
	for i, c := range codes {
		if c > 15 {
			return nil, fmt.Errorf("amx: int4 code %d at (%d,%d) out of nibble range", c, i/n, i%n)
		}
		w.q[i] = int8(c) - 8
	}
	for i, s := range scales {
		w.scales[i] = RoundFloat32(s)
	}
	return w, nil
}

// GEMV4LUTInto computes dst = x·W (x is m×K row-major float32,
// bf16-rounded on read like every kernel here, dst the caller's m×N,
// every element overwritten) through the INT4 kernel and returns the
// modeled cycles.
func (w *PrepackedINT4) GEMV4LUTInto(dst, x []float32, m int) (uint64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("amx: int4 gemv rows must be positive, got %d", m)
	}
	if len(x) != m*w.K {
		return 0, fmt.Errorf("amx: int4 gemv operand size %d does not match %dx%d", len(x), m, w.K)
	}
	if len(dst) != m*w.N {
		return 0, fmt.Errorf("amx: int4 gemv destination size %d does not match %dx%d", len(dst), m, w.N)
	}
	// Rows share the team in tensor's units — whole four-row blocks, then
	// the rows they leave — each with scratch of its own, so a multi-row
	// call with enough work splits and every block still shares its
	// weight loads.
	units := tensor.RowUnits(m)
	if units > 1 && m*w.K*w.N >= team.SplitMACs {
		workers.Run(units, func(u int) {
			lo, hi := tensor.UnitRow(m, u), tensor.UnitRow(m, u+1)
			w.gemvRows(dst[lo*w.N:hi*w.N], x[lo*w.K:hi*w.K], hi-lo)
		})
	} else {
		w.gemvRows(dst, x, m)
	}
	return uint64(m) * w.PredictCycles(1), nil
}

// gemvRows computes m activation rows' outputs with scratch of its own
// (the bf16-rounded rows and one group sum per row and column), so row
// ranges can run on different workers. Per group the sums start at +0
// and gain xr[i][k]·float32(q[k][j]) in k order through
// tensor.MatMulInt8Into, four rows per pass over the group's codes (the
// zero coefficients' terms are ±0, which cannot change a sum that is
// never −0, so a row's sums do not depend on the rows beside it); out
// starts at +0 and gains s(g,j)·sum[i][j] group by group.
func (w *PrepackedINT4) gemvRows(out, x []float32, m int) {
	buf := f32Scratch.get(m * (w.K + w.N))
	defer f32Scratch.put(buf)
	xr, gs := (*buf)[:m*w.K], (*buf)[m*w.K:]
	copy(xr, x)
	RoundSlice(xr)
	clear(out)
	for g := 0; g < w.groups; g++ {
		lo, hi := g*w.Group, min((g+1)*w.Group, w.K)
		tensor.MatMulInt8Into(gs, m, hi-lo, w.N, xr[lo:], w.K, w.q[lo*w.N:hi*w.N])
		scales := w.scales[g*w.N : (g+1)*w.N]
		for i := 0; i < m; i++ {
			orow, srow := out[i*w.N:(i+1)*w.N], gs[i*w.N:(i+1)*w.N]
			for j, s := range scales {
				orow[j] = orow[j] + float32(s*srow[j])
			}
		}
	}
}

// PredictCycles is the LUT kernel's documented cycles model for an m-row
// call, the analytic layers' pricing hook (mirroring the tile operands'
// PredictCycles). Per activation row it charges: K cycles of table build
// (one 16-wide broadcast-multiply per element), ceil(K·N/16) cycles of
// gather+add walking every column's nibbles, and ceil(N·groups/16)
// cycles of group-scale FMA. The kernel has no tile file, so there is no
// palette-configure term.
func (w *PrepackedINT4) PredictCycles(m int) uint64 {
	perRow := uint64(w.K) +
		uint64(ceilDiv(w.K*w.N, lutVecLanes)) +
		uint64(ceilDiv(w.N*w.groups, lutVecLanes))
	return uint64(m) * perRow
}
