package quant

import (
	"fmt"
	"math"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/tensor"
)

// INT4 group quantization — the storage format behind the LUT-GEMV
// compute tier (amx.PrepackedINT4). Weights are quantized symmetrically
// per (group, output column): within each run of Group consecutive K
// rows of a column, q = clamp(round(w/s), −8, 7) with s = max|w|/7
// rounded to bfloat16 (the 2-byte precision the format stores). Two
// codes pack per byte, so the shipped footprint is K·N/2 nibble bytes
// plus 2·N·ceil(K/Group) scale bytes — for Group 128 that is at most
// half of the INT8 format's K·N + 8·N whenever K ≤ 256 (the model
// shapes the functional engine serves; int4_test.go asserts the bound).

// DefaultGroupINT4 is the group length the serving paths use: large
// enough that the bf16 scale overhead keeps the footprint under half of
// INT8 for every tiny-model K, small enough to track per-region weight
// magnitude.
const DefaultGroupINT4 = 128

// WeightsINT4 is an INT4 group-quantized weight matrix.
type WeightsINT4 struct {
	// K and N are the logical dimensions, Group the quantization group
	// length along K (the last group of a column may be short).
	K, N, Group int
	// Codes holds the nibble codes (value = code − 8 ∈ [−8, 7]) packed
	// two per byte over the row-major flat index r·N + j: element i lives
	// in Codes[i/2], even i in the low nibble.
	Codes []uint8
	// Scales holds the bfloat16 bit patterns of the per-(group, column)
	// scales, row-major groups×N.
	Scales []uint16
	// pre is the LUT kernel's runtime image, built once at quantization
	// time (mirroring Weights.pre); nil only for hand-built values.
	pre *amx.PrepackedINT4
}

// QuantizeINT4 quantizes w (K×N float32) into the group format. group ≤ 0
// selects DefaultGroupINT4.
func QuantizeINT4(w tensor.Matrix, group int) (WeightsINT4, error) {
	if group <= 0 {
		group = DefaultGroupINT4
	}
	k, n := w.Rows, w.Cols
	if k <= 0 || n <= 0 {
		return WeightsINT4{}, fmt.Errorf("quant: int4 dimensions must be positive, got %dx%d", k, n)
	}
	groups := (k + group - 1) / group
	out := WeightsINT4{
		K: k, N: n, Group: group,
		Codes:  make([]uint8, (k*n+1)/2),
		Scales: make([]uint16, groups*n),
	}
	codes := make([]uint8, k*n) // unpacked, for the amx image
	scales := make([]float32, groups*n)
	for j := 0; j < n; j++ {
		for g := 0; g < groups; g++ {
			lo := g * group
			hi := lo + group
			if hi > k {
				hi = k
			}
			var maxAbs float32
			for i := lo; i < hi; i++ {
				v := w.At(i, j)
				if v < 0 {
					v = -v
				}
				if v > maxAbs {
					maxAbs = v
				}
			}
			s := amx.RoundFloat32(maxAbs / 7)
			scales[g*n+j] = s
			out.Scales[g*n+j] = uint16(amx.BF16FromFloat32(s))
			for i := lo; i < hi; i++ {
				code := int32(0)
				if s != 0 {
					code = int32(math.RoundToEven(float64(w.At(i, j) / s)))
					if code > 7 {
						code = 7
					}
					if code < -8 {
						code = -8
					}
				}
				codes[i*n+j] = uint8(code + 8)
			}
		}
	}
	for i, c := range codes {
		if i%2 == 0 {
			out.Codes[i/2] |= c
		} else {
			out.Codes[i/2] |= c << 4
		}
	}
	pre, err := amx.PrepackINT4LUT(codes, k, n, group, scales)
	if err != nil {
		return WeightsINT4{}, fmt.Errorf("quant: int4 prepack: %w", err)
	}
	out.pre = pre
	return out, nil
}

// code returns the unpacked nibble at flat index i.
func (w WeightsINT4) code(i int) uint8 {
	b := w.Codes[i/2]
	if i%2 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

// scale returns the float32 value of the (group g, column j) scale.
func (w WeightsINT4) scale(g, j int) float32 {
	return amx.BF16(w.Scales[g*w.N+j]).Float32()
}

// Dequantize reconstructs the float32 weights: s(g,j) · (code − 8).
// It is a test oracle: the quant and llm tests compare the INT4 tier
// against these weights, and no program calls it.
func (w WeightsINT4) Dequantize() tensor.Matrix {
	out := tensor.New(w.K, w.N)
	for i := 0; i < w.K; i++ {
		g := i / w.Group
		for j := 0; j < w.N; j++ {
			out.Set(i, j, w.scale(g, j)*float32(int(w.code(i*w.N+j))-8))
		}
	}
	return out
}

// Bytes returns the shipped storage footprint: packed nibbles plus the
// 2-byte bf16 group scales. Unlike the INT8 format there is no zero-point
// side table — the LUT path consumes float activations directly.
func (w WeightsINT4) Bytes() int { return len(w.Codes) + 2*len(w.Scales) }

// Footprint is the serving-footprint accessor, identical to Bytes() —
// the INT4 twin of Weights.Footprint.
func (w WeightsINT4) Footprint() int { return w.Bytes() }

// LinearINT4LUT computes y = x·W into dst (x.Rows × N, every element
// overwritten) through the INT4 GEMV kernel — SAIL's lookup-table GEMV
// with each table entry computed in a vector register instead of looked
// up, bit for bit the same; see amx.PrepackedINT4 for the numeric
// contract — and returns the modeled cycles of the table design.
func LinearINT4LUT(dst, x tensor.Matrix, w WeightsINT4) (uint64, error) {
	if x.Cols != w.K || dst.Rows != x.Rows || dst.Cols != w.N {
		return 0, fmt.Errorf("quant: int4 linear shape mismatch %dx%d · %dx%d into %dx%d", x.Rows, x.Cols, w.K, w.N, dst.Rows, dst.Cols)
	}
	if w.pre == nil {
		return 0, fmt.Errorf("quant: int4 weights missing prepacked image (use QuantizeINT4)")
	}
	return w.pre.GEMV4LUTInto(dst.Data, x.Data, x.Rows)
}
