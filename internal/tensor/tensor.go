// Package tensor provides the dense float32 linear algebra the functional
// LLM engine (package llm) is built on: row-major matrices, a GEMM
// partitioned onto the worker team in four-row blocks whose inner loop is
// one four-row body (rows4, in AVX-512 or AVX2 assembly where the host
// has it: each load of the right operand feeds four output rows), the
// attention primitives (softmax, scaling, causal masking), layer
// normalization, and the activation functions OPT-style transformers use.
//
// This is the "GPU kernel library" counterpart to package amx's tile
// pipeline: sublayers a policy places on the GPU, and the LM head, run
// through these kernels, while CPU-offloaded sublayers run through the
// AMX emulator.
package tensor

import (
	"fmt"
	"math"

	"github.com/lia-sim/lia/internal/team"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	// Rows and Cols give the logical shape.
	Rows, Cols int
	// Data holds Rows×Cols values in row-major order.
	Data []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewWithCap returns a zeroed rows×cols matrix whose backing array can
// hold capRows rows, so reslicing Data grows it in place up to that
// capacity — the KV-cache preallocation hook.
func NewWithCap(rows, cols, capRows int) Matrix {
	if rows < 0 || cols < 0 || capRows < rows {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d (cap %d)", rows, cols, capRows))
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols, capRows*cols)}
}

// FromSlice wraps data (length rows×cols) without copying.
func FromSlice(rows, cols int, data []float32) Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d values cannot form %dx%d", len(data), rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (m Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set writes the element at (r, c).
func (m Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equal reports whether two matrices have identical shapes and all
// elements within tol of each other.
func (m Matrix) Equal(other Matrix, tol float32) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

// workers is the team MatMul partitions onto. Production code
// never reassigns it; tests pin other sizes.
var workers = team.Default()

// parallelRows runs fn over [0, units), as unit ranges claimed by the
// worker team when splits says the product (macsPerUnit
// multiply-accumulates a unit) is worth it, inline otherwise. Ranges are
// a quarter of a worker's even share, so a helper that joins late still
// finds units and a helper that never joins delays nobody.
func parallelRows(units, macsPerUnit int, fn func(lo, hi int)) {
	if !splits(units, macsPerUnit) {
		fn(0, units)
		return
	}
	parts := min(units, 4*workers.Size())
	chunk := (units + parts - 1) / parts
	workers.Run((units+chunk-1)/chunk, func(i int) {
		fn(i*chunk, min((i+1)*chunk, units))
	})
}

// splits reports whether parallelRows hands a product of units units,
// macsPerUnit multiply-accumulates each, to the team; a caller that would
// build a closure only to have it run inline asks first.
func splits(units, macsPerUnit int) bool {
	return workers.Size() > 1 && units > 1 && units*macsPerUnit >= team.SplitMACs
}

// RowUnits is how many units m output rows split into when a team
// shares them out: m/4 whole four-row blocks, then the m%4 rows the
// blocks leave, one unit each. Units [lo, hi) are rows
// [UnitRow(m, lo), UnitRow(m, hi)), so a range starts on a block boundary
// and the row kernel blocks it as it would the whole.
func RowUnits(m int) int { return m/4 + m%4 }

// UnitRow is the first row of unit u of m rows (m itself for u =
// RowUnits(m)).
func UnitRow(m, u int) int { return 4*u - 3*max(u-m/4, 0) }

// MatMul computes a·b (a is M×K, b is K×N) with float32 accumulation,
// partitioned over output rows.
func MatMul(a, b Matrix) Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return MatMulInto(make([]float32, a.Rows*b.Cols), a, Band(b.Data, b.Rows, b.Cols, b.Cols))
}

// Operand is MatMulInto's right operand B, read in place: k rows of n
// values, row kk starting at data[kk*ld]. Band builds one over any
// values; RoundedBF16 builds one that is proven finite.
type Operand struct {
	data     []float32
	k, n, ld int
	finite   bool
}

// Band returns the operand whose row kk is b[kk*ld : kk*ld+n], kk < k —
// a band of a wider matrix, such as one head's columns of the KV cache.
// It claims nothing about the values; MatMulInto checks the reach.
func Band(b []float32, k, n, ld int) Operand { return Operand{data: b, k: k, n: n, ld: ld} }

// RoundedBF16 returns a copy of w rounded through bfloat16 (RoundBF16) as
// an operand, marked finite when every rounded value is. The check
// follows the rounding because rounding can carry a finite value past
// MaxFloat32 to +Inf.
func RoundedBF16(w Matrix) Operand {
	data := append([]float32(nil), w.Data...)
	RoundBF16(data)
	finite := true
	for _, v := range data {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			finite = false
			break
		}
	}
	return Operand{data: data, k: w.Rows, n: w.Cols, ld: w.Cols, finite: finite}
}

// Rows and Cols give B's logical shape, k × n.
func (b Operand) Rows() int { return b.k }
func (b Operand) Cols() int { return b.n }

// MatMulInto computes a·B into out and returns out as the a.Rows×n
// product. B must have a.Cols rows, its stride must be at least n and its
// values must reach the end of its last row; out is cleared first and
// must hold exactly a.Rows×n values. All of it is checked before any row
// runs. Zero coefficients' terms are skipped, so an ∞ or NaN in B under a
// zero coefficient does not reach the output; over an operand proven
// finite they are added instead, which changes no bit (matmulRows). The
// team shares out RowUnits(a.Rows) units, each four-row block or leftover
// row computed by one worker in one call, so the result does not depend
// on the split.
func MatMulInto(out []float32, a Matrix, b Operand) Matrix {
	m, k, n, ld := a.Rows, a.Cols, b.n, b.ld
	if b.k != k || n < 0 || ld < n || len(out) != m*n || len(b.data) < (k-1)*ld+n {
		panic(fmt.Sprintf("tensor: strided matmul of %dx%d by %d rows of %d (stride %d) from %d values into %d",
			m, k, b.k, n, ld, len(b.data), len(out)))
	}
	clear(out)
	if units := RowUnits(m); units > 0 && splits(units, (m*k*n+units-1)/units) {
		parallelRows(units, (m*k*n+units-1)/units, func(lo, hi int) {
			r0, r1 := UnitRow(m, lo), UnitRow(m, hi)
			f32Rows.matmulRows(out[r0*n:r1*n], a.Data[r0*k:], k, r1-r0, k, b.data, ld, n, b.finite)
		})
	} else {
		f32Rows.matmulRows(out, a.Data, k, m, k, b.data, ld, n, b.finite)
	}
	return FromSlice(m, n, out)
}

// MatMulInt8Into computes A·B into out on the calling goroutine, where A
// is m rows of k coefficients, row i starting at a[i*lda], and B is the
// k×n row-major int8 matrix b: MatMulInto's kernel over an int8 right
// operand. out is cleared first and must hold exactly m×n values. Each
// output element is the sum, from +0, of the terms a[i][kk]·float32(B[kk][j])
// in kk order, each product and sum rounded to float32 (the widening is
// exact, so a term rounds once, like a float32 product). B is finite, so
// a zero coefficient's term is ±0 and whether it is added cannot change
// a bit. Every operand is checked before any row runs.
func MatMulInt8Into(out []float32, m, k, n int, a []float32, lda int, b []int8) {
	if m < 0 || k < 0 || n < 0 || lda < k || len(out) != m*n || len(b) != k*n ||
		(m > 0 && len(a) < (m-1)*lda+k) {
		panic(fmt.Sprintf("tensor: int8 matmul of %dx%d (stride %d) from %d values by %d int8 values into %d",
			m, k, lda, len(a), len(b), len(out)))
	}
	clear(out)
	i8Rows.matmulRows(out, a, lda, m, k, b, n, n, true)
}

// Scale multiplies every element by s in place and returns m.
func Scale(m Matrix, s float32) Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// SoftmaxRows applies a numerically stable softmax to each row in place
// and returns m.
func SoftmaxRows(m Matrix) Matrix {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		maxV := float32(math.Inf(-1))
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float32
		for i, v := range row {
			e := float32(math.Exp(float64(v - maxV)))
			row[i] = e
			sum += e
		}
		if sum > 0 {
			inv := 1 / sum
			for i := range row {
				row[i] *= inv
			}
		}
	}
	return m
}

// CausalMask sets entries above the diagonal offset to -Inf so softmax
// zeroes them: row i may attend to columns ≤ i+offset. Every pass runs
// it; a one-row decode pass whose row sees the whole cache
// (offset = cols − 1) masks nothing.
func CausalMask(scores Matrix, offset int) Matrix {
	negInf := float32(math.Inf(-1))
	for r := 0; r < scores.Rows; r++ {
		row := scores.Row(r)
		for c := r + offset + 1; c < scores.Cols; c++ {
			row[c] = negInf
		}
	}
	return scores
}

// LayerNorm writes each row of m, normalized to zero mean and unit
// variance and then scaled by the learned gain and shifted by bias, into
// dst's row and returns dst (dst has m's shape and may not overlap it).
// eps guards the variance.
func LayerNorm(dst, m Matrix, gain, bias []float32, eps float32) Matrix {
	if len(gain) != m.Cols || len(bias) != m.Cols || dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: layernorm of %dx%d into %dx%d with params %d,%d",
			m.Rows, m.Cols, dst.Rows, dst.Cols, len(gain), len(bias)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= float32(m.Cols)
		var variance float32
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float32(m.Cols)
		inv := 1 / float32(math.Sqrt(float64(variance+eps)))
		orow := dst.Row(r)
		for c, v := range row {
			orow[c] = (v-mean)*inv*gain[c] + bias[c]
		}
	}
	return dst
}

// SiLU applies x·sigmoid(x) in place and returns m (the gated-FFN
// activation Llama-family models use).
func SiLU(m Matrix) Matrix {
	for i, v := range m.Data {
		m.Data[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
	return m
}

// MulElem multiplies a by b elementwise in place and returns a.
func MulElem(a, b Matrix) Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: mulelem shape mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := range a.Data {
		a.Data[i] *= b.Data[i]
	}
	return a
}

// SwiGLU writes SiLU(gate)·up into dst and returns it, gate and up being
// the first and second halves of h's columns (the gated FFN's activation,
// with SiLU's and MulElem's arithmetic).
func SwiGLU(dst, h Matrix) Matrix {
	half := dst.Cols
	if h.Rows != dst.Rows || h.Cols != 2*half {
		panic(fmt.Sprintf("tensor: swiglu of %dx%d into %dx%d", h.Rows, h.Cols, dst.Rows, dst.Cols))
	}
	for r := 0; r < h.Rows; r++ {
		gate := FromSlice(1, half, dst.Row(r))
		copy(gate.Data, h.Row(r)[:half])
		MulElem(SiLU(gate), FromSlice(1, half, h.Row(r)[half:]))
	}
	return dst
}

// ArgmaxRow returns the column index of the maximum value in row r.
func (m Matrix) ArgmaxRow(r int) int {
	row := m.Row(r)
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range row {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
