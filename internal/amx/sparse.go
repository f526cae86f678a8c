package amx

import "encoding/binary"

// Sparse AMX tier (SparAMX-style): a prepacked right-hand operand can
// carry a per-tile-block zero-block bitmap, built once at prepack time by
// scanning the VNNI byte image. drive (pool.go) then skips a zero
// (kb, cb) block outright — no TileLoads, no TDP — which is where the
// cycles go: each skipped block saves 2·cyclesTileLoad + cyclesTDP while
// the per-column-block TileZero/TileStore bookkeeping is unchanged.
// Because the bitmap is a property of the operand (data-independent at
// matmul time), the tile unit and the decoded emulator take exactly the
// same skips and stay bit-identical to each other.
//
// Numerics: a skipped BF16 block contributes only ±0.0 products to the
// accumulator. Eliding those adds is exact whenever the running sum is
// nonzero (x + ±0.0 == x); the only divergence from the dense product is
// the sign of an exactly-zero accumulator lane or a NaN that an Inf×0
// would have minted — neither occurs with finite weights/activations,
// which is the documented tolerance of the sparse tier (the INT8 skip is
// exact unconditionally: integer +0). The golden-corpus suites pin the
// token streams.

// zeroBitmap marks which (kb, cb) tile blocks of a prepacked operand are
// entirely zero. Bit index cb*kBlocks+kb matches drive's loop order.
type zeroBitmap struct {
	bits []uint64
	nz   int // nonzero blocks
}

func newZeroBitmap(total int) *zeroBitmap {
	return &zeroBitmap{bits: make([]uint64, (total+63)/64)}
}

func (z *zeroBitmap) set(i int)       { z.bits[i>>6] |= 1 << uint(i&63) }
func (z *zeroBitmap) skip(i int) bool { return z.bits[i>>6]&(1<<uint(i&63)) != 0 }

// skipBlock reports whether block (kb, cb) of a sparse operand is zero;
// a nil bitmap (dense operand) never skips.
func (z *zeroBitmap) skipBlock(cb, kb, kBlocks int) bool {
	if z == nil {
		return false
	}
	return z.skip(cb*kBlocks + kb)
}

// scanZero builds w's bitmap from its VNNI image: block (kb, cb) is the
// 16 image rows from kb·16, 64 bytes from cb·64 — k-block kb's logical K
// rows and columns [cb·blockN, (cb+1)·blockN) for either element type —
// and is zero when every lane in it is: an int8 lane is zero iff its byte
// is, a bf16 lane iff its bits are ±0.0 (0x0000 or 0x8000, see the tier
// note above for why -0.0 lanes are skippable).
func (w *operand[E]) scanZero() *zeroBitmap {
	nonzero := lanesOf[E]().nonzero
	kBlocks, colBlocks, bStride := w.kBlocks(), w.padN/blockN, w.padN*4
	blockZero := func(kb, cb int) bool {
		for r := kb * MaxRows; r < (kb+1)*MaxRows; r++ {
			row := w.vnni[r*bStride+cb*MaxColBytes:][:MaxColBytes]
			for i := 0; i < MaxColBytes; i += 8 {
				if binary.LittleEndian.Uint64(row[i:])&nonzero != 0 {
					return false
				}
			}
		}
		return true
	}
	z := newZeroBitmap(kBlocks * colBlocks)
	for cb := 0; cb < colBlocks; cb++ {
		for kb := 0; kb < kBlocks; kb++ {
			if blockZero(kb, cb) {
				z.set(cb*kBlocks + kb)
			} else {
				z.nz++
			}
		}
	}
	return z
}

// PrepackBF16Sparse is PrepackBF16 plus the zero-block bitmap: the
// returned operand runs through the same MatmulBF16PackedInto entry point
// but skips zero (kb, cb) tile blocks entirely. Prepack cost is one extra
// scan of the VNNI image.
func PrepackBF16Sparse(b []float32, k, n int) (*Prepacked, error) { return prepackSparse(b, k, n) }

// PrepackINT8Sparse is PrepackINT8 plus the zero-block bitmap (the INT8
// skip is exact: a zero block contributes integer +0 to every lane).
func PrepackINT8Sparse(b []int8, k, n int) (*PrepackedINT8, error) { return prepackSparse(b, k, n) }

func prepackSparse[E float32 | int8](b []E, k, n int) (*operand[E], error) {
	w, err := prepack(b, k, n, !hwAvailable)
	if err != nil {
		return nil, err
	}
	w.zero = w.scanZero()
	return w, nil
}

// BlockStats reports the operand's (nonzero, total) tile-block counts.
// Dense operands (no bitmap) report every block nonzero.
func (w *operand[E]) BlockStats() (nz, total int) {
	total = w.kBlocks() * (w.padN / blockN)
	if w.zero == nil {
		return total, total
	}
	return w.zero.nz, total
}

// BlockShapeBF16 reports the (k, n) granularity of one BF16 tile block —
// the unit at which the sparse tier can skip work. Pruning that wants the
// skip to fire must zero whole k×n blocks of the weight matrix.
func BlockShapeBF16() (k, n int) { return blockK, blockN }

// BlockShapeINT8 reports the (k, n) granularity of one INT8 tile block.
func BlockShapeINT8() (k, n int) { return blockKi8, blockN }

// PredictCycles returns the steady-state AMX cycles one product with m
// activation rows consumes once the tile palette is installed (a cold
// unit adds cyclesConfig once): per 16-row stripe every column block
// pays TileZero + TileStore and every nonzero (kb, cb) block pays two
// TileLoads and one TDP. This is the calibrated cycles-∝-nonzero-blocks
// model the analytic layers price sparsity with; the emulator's
// deterministic accounting makes it exact, which sparse_test.go pins
// against measured Unit cycles.
func (w *operand[E]) PredictCycles(m int) uint64 {
	nz, _ := w.BlockStats()
	perStripe := uint64(w.padN/blockN)*(cyclesTileZero+cyclesTileStore) +
		uint64(nz)*(2*cyclesTileLoad+cyclesTDP)
	return uint64(ceilDiv(m, blockM)) * perStripe
}
