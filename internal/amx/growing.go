package amx

import (
	"encoding/binary"
	"fmt"
)

// Growing is a right-hand BF16 GEMM operand that grows one position at a
// time: attention's Kᵀ, the B operand of Q·Kᵀ, gains a column per cached
// token, and V, the B operand of P·V, gains a row. It holds what
// PrepackBF16 would build for the matrix so far, in the one layout
// kernelFor reads from it — the VNNI image where the host grants the
// tile unit, the column-major decoded view elsewhere — preallocated to a
// capacity. Append writes only the new position's lanes, and
// MatmulBF16GrowingInto multiplies the image in place, so a product over
// a growing context never repacks the positions it already holds.
//
// The stored lanes are the BF16FromFloat32 roundings a per-call pack of
// the same matrix produces, and a product runs the logical k × n through
// drive, so results, faults and cycles are those of PrepackBF16 +
// MatmulBF16PackedInto over the same matrix. Only the image's strides differ:
// they are fixed by the capacity, not the length.
type Growing struct {
	// w is the operand as the block kernels read it. K × N is the matrix
	// so far and padK its padded depth — the width of A's image and the
	// k-block count. padN, the VNNI row width in columns, and decStride,
	// the decoded view's column stride, are fixed by the capacity.
	w Prepacked
	// byRows is true when a position is a row of B (V: k grows), false
	// when it is a column (Kᵀ: n grows).
	byRows          bool
	width, capacity int
}

// NewGrowingRows returns an empty operand whose positions are rows of B,
// width values each: after p appends B is p × width (P·V's V).
func NewGrowingRows(width, capacity int) (*Growing, error) {
	return newGrowing(width, capacity, true, !hwAvailable)
}

// NewGrowingCols returns an empty operand whose positions are columns of
// B, width values each: after p appends B is width × p (Q·Kᵀ's Kᵀ).
func NewGrowingCols(width, capacity int) (*Growing, error) {
	return newGrowing(width, capacity, false, !hwAvailable)
}

// newGrowing builds the VNNI image, or with decoded set the decoded view
// instead — the one each host's kernel choice reads. Tests pick either on
// any host.
func newGrowing(width, capacity int, byRows, decoded bool) (*Growing, error) {
	if width <= 0 || capacity <= 0 {
		return nil, fmt.Errorf("amx: growing operand needs positive width and capacity, got %d, %d", width, capacity)
	}
	g := &Growing{byRows: byRows, width: width, capacity: capacity}
	// The image spans kRows × nCols logical lanes: the capacity along the
	// growing axis, the width along the other, each padded to its block.
	var kRows, nCols int
	if byRows {
		kRows, nCols = ceilDiv(capacity, blockK)*blockK, ceilDiv(width, blockN)*blockN
		g.w.N = width
	} else {
		kRows, nCols = ceilDiv(width, blockK)*blockK, ceilDiv(capacity, blockN)*blockN
		g.w.K, g.w.padK = width, kRows
	}
	g.w.padN = nCols
	if decoded {
		g.w.dec = make([]float32, kRows*nCols)
		g.w.decStride = kRows
		g.w.span = emptySpan
	} else {
		g.w.vnni = make([]byte, kRows*nCols*2)
	}
	return g, nil
}

// Len returns how many positions the operand holds.
func (g *Growing) Len() int {
	if g.byRows {
		return g.w.K
	}
	return g.w.N
}

// setLen makes the first n positions the operand's matrix.
func (g *Growing) setLen(n int) {
	if g.byRows {
		g.w.K, g.w.padK = n, ceilDiv(n, blockK)*blockK
	} else {
		g.w.N = n
	}
}

// Append adds one position holding the width values of v.
func (g *Growing) Append(v []float32) error {
	if len(v) != g.width {
		return fmt.Errorf("amx: growing operand position has %d values, want %d", len(v), g.width)
	}
	p := g.Len()
	if p == g.capacity {
		return fmt.Errorf("amx: growing operand is full at %d positions", g.capacity)
	}
	g.put(p, v)
	g.setLen(p + 1)
	return nil
}

// Truncate drops every position at and past n and zeroes its lanes. The
// zeroing is not cosmetic: a product reads V up to its next k-block
// boundary, where A is zero padding, and a stale ∞ or NaN lane there
// would turn 0 × ∞ into a NaN result. It panics if n is negative or
// greater than Len().
func (g *Growing) Truncate(n int) {
	if n < 0 || n > g.Len() {
		panic(fmt.Sprintf("amx: truncate to %d positions outside operand of %d", n, g.Len()))
	}
	for p := n; p < g.Len(); p++ {
		g.put(p, nil)
	}
	g.setLen(n)
	if g.w.dec != nil {
		// The fast-path decision is made from the span of the lanes held,
		// so it must forget the dropped ones.
		g.w.span = spanOf(g.w.dec)
	}
}

// put writes position p's lanes: the bf16 roundings of v, or zeros for a
// nil v. Lane i of the position is element (k, c) of B.
func (g *Growing) put(p int, v []float32) {
	for i := 0; i < g.width; i++ {
		var x float32
		if v != nil {
			x = v[i]
		}
		k, c := i, p
		if g.byRows {
			k, c = p, i
		}
		if g.w.vnni != nil {
			// VNNI pair row k/2 holds B[k&^1][c] and B[k|1][c] at bytes 4c
			// and 4c+2.
			binary.LittleEndian.PutUint16(g.w.vnni[(k/2)*g.w.padN*4+4*c+2*(k&1):], uint16(BF16FromFloat32(x)))
			continue
		}
		r := RoundFloat32(x)
		g.w.dec[c*g.w.decStride+k] = r
		g.w.span = g.w.span.with(r)
	}
}

// MatmulBF16GrowingInto computes dst = A·B for the matrix g holds now: A
// is m × K row-major float32 and dst m × N, where one of K and N is
// g.Len(). Results and cycle accounting are bit-identical to
// MatmulBF16PackedInto over PrepackBF16 of the same matrix.
func MatmulBF16GrowingInto(dst, a []float32, m int, g *Growing) (uint64, error) {
	if g == nil {
		return 0, fmt.Errorf("amx: nil growing operand")
	}
	if g.Len() == 0 {
		return 0, fmt.Errorf("amx: matmul over an empty growing operand")
	}
	return MatmulBF16PackedInto(dst, a, m, &g.w)
}
