package amx

import (
	"fmt"

	"github.com/lia-sim/lia/internal/team"
)

// INT4 LUT-GEMV tier (SAIL-style): the decode path's single-row GEMV
// replaces inner-loop multiplies with table lookups. For each activation
// element x[k] the kernel precomputes the 16 products x[k]·(c−8) for
// every nibble code c once; walking a weight column is then a gather of
// precomputed partial products plus adds, with one multiply per (group,
// column) to apply the group scale. The weight never gets dequantized —
// its nibbles index the table directly.
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
// LUT kernel's runtime layout: nibble codes unpacked one-per-byte and
// transposed column-major (column j's K codes contiguous, like the dense
// operands' decoded views), group scales bf16-pre-rounded to float32,
// also column-major. The storage-format footprint (packed nibbles + 2-byte
// scales) is what internal/quant accounts; this image is compute scratch.
type PrepackedINT4 struct {
	// K and N are the logical dimensions, Group the quantization group
	// length along K (the last group may be short).
	K, N, Group int
	groups      int // ceilDiv(K, Group)
	codes       []uint8
	scales      []float32
}

// PrepackINT4LUT builds the LUT kernel's operand from row-major nibble
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
		codes: make([]uint8, k*n), scales: make([]float32, groups*n)}
	for j := 0; j < n; j++ {
		col := w.codes[j*k : (j+1)*k]
		for r := 0; r < k; r++ {
			c := codes[r*n+j]
			if c > 15 {
				return nil, fmt.Errorf("amx: int4 code %d at (%d,%d) out of nibble range", c, r, j)
			}
			col[r] = c
		}
		scol := w.scales[j*groups : (j+1)*groups]
		for g := 0; g < groups; g++ {
			scol[g] = RoundFloat32(scales[g*n+j])
		}
	}
	return w, nil
}

// GEMV4LUT computes y = x·W (x is m×K row-major float32, bf16-rounded on
// read like every kernel here) through the lookup-table path and returns
// the m×N result plus the modeled cycles.
func (w *PrepackedINT4) GEMV4LUT(x []float32, m int) ([]float32, uint64, error) {
	y := make([]float32, m*w.N)
	cycles, err := w.GEMV4LUTInto(y, x, m)
	if err != nil {
		return nil, 0, err
	}
	return y, cycles, nil
}

// GEMV4LUTInto is GEMV4LUT writing into a caller-owned destination
// (len must be exactly m×N).
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
	// Activation rows are independent (each builds its own table), so a
	// multi-row call with enough work splits by row across the team.
	if m > 1 && m*w.K*w.N >= team.SplitMACs {
		workers.Run(m, func(i int) { w.lutRow(dst[i*w.N:(i+1)*w.N], x[i*w.K:(i+1)*w.K]) })
	} else {
		for i := 0; i < m; i++ {
			w.lutRow(dst[i*w.N:(i+1)*w.N], x[i*w.K:(i+1)*w.K])
		}
	}
	return uint64(m) * w.PredictCycles(1), nil
}

// lutRow computes one activation row's outputs with table scratch of
// its own, so rows can run on different workers.
func (w *PrepackedINT4) lutRow(out, row []float32) {
	lutBuf := getScratchF32(w.K * 16)
	defer putScratchF32(lutBuf)
	lut := *lutBuf
	// Table build: 16 partial products per activation element.
	for k, v := range row {
		xr := RoundFloat32(v)
		t := lut[k*16 : k*16+16]
		for c := range t {
			t[c] = xr * float32(c-8)
		}
	}
	for j := 0; j < w.N; j++ {
		col := w.codes[j*w.K : (j+1)*w.K]
		scol := w.scales[j*w.groups : (j+1)*w.groups]
		var acc float32
		for g := 0; g < w.groups; g++ {
			lo := g * w.Group
			hi := lo + w.Group
			if hi > w.K {
				hi = w.K
			}
			var gs float32
			for k := lo; k < hi; k++ {
				gs += lut[k*16+int(col[k])]
			}
			acc += scol[g] * gs
		}
		out[j] = acc
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

// Groups reports the number of quantization groups along K.
func (w *PrepackedINT4) Groups() int { return w.groups }
