package amx

// Sparse AMX tier (SparAMX-style): a prepacked right-hand operand can
// carry a per-tile-block zero-block bitmap, built once at prepack time by
// scanning the VNNI byte image. drive (pool.go) then skips a zero
// (kb, cb) block outright — no TileLoads, no TDP — which is where the
// cycles go: each skipped block saves 2·cyclesTileLoad + cyclesTDP while
// the per-column-block TileZero/TileStore bookkeeping is unchanged.
// Because the bitmap is a property of the operand (data-independent at
// matmul time), the byte-accurate oracle and the decoded fast path take
// exactly the same skips and stay bit-identical to each other.
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

// scanZero builds the bitmap of a kBlocks × colBlocks operand from its
// element type's block predicate.
func scanZero(kBlocks, colBlocks int, blockZero func(kb, cb int) bool) *zeroBitmap {
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

// scanZeroBF16VNNI builds the bitmap for a BF16 VNNI image: block
// (kb, cb) spans logical K rows [kb·blockK, (kb+1)·blockK) and columns
// [cb·blockN, (cb+1)·blockN), i.e. VNNI pair-rows [kb·blockK/2, …) at
// byte columns cb·blockN·4. A lane counts as zero when its bf16 bits are
// ±0.0 (0x0000 or 0x8000) — see the tier note above for why -0.0 lanes
// are skippable.
func scanZeroBF16VNNI(vnni []byte, padK, padN int) *zeroBitmap {
	return scanZero(padK/blockK, padN/blockN, func(kb, cb int) bool { return bf16BlockZero(vnni, kb, cb, padN*4) })
}

func bf16BlockZero(vnni []byte, kb, cb, bStride int) bool {
	for pr := 0; pr < blockK/2; pr++ {
		row := vnni[(kb*(blockK/2)+pr)*bStride+cb*blockN*4:]
		for c := 0; c < blockN; c++ {
			// Two bf16 lanes per pair entry; zero iff magnitude bits clear.
			if row[c*4] != 0 || row[c*4+1]&0x7f != 0 ||
				row[c*4+2] != 0 || row[c*4+3]&0x7f != 0 {
				return false
			}
		}
	}
	return true
}

// scanZeroINT8VNNI is the INT8 twin: a lane is zero iff its byte is 0.
func scanZeroINT8VNNI(vnni []byte, padK, padN int) *zeroBitmap {
	return scanZero(padK/blockKi8, padN/blockNi8, func(kb, cb int) bool { return int8BlockZero(vnni, kb, cb, padN*4) })
}

func int8BlockZero(vnni []byte, kb, cb, bStride int) bool {
	for qr := 0; qr < blockKi8/4; qr++ {
		row := vnni[(kb*(blockKi8/4)+qr)*bStride+cb*blockNi8*4:]
		for c := 0; c < blockNi8*4; c++ {
			if row[c] != 0 {
				return false
			}
		}
	}
	return true
}

// PrepackBF16Sparse is PrepackBF16 plus the zero-block bitmap: the
// returned operand runs through the same MatmulBF16PackedInto entry point
// but skips zero (kb, cb) tile blocks entirely. Prepack cost is one extra
// scan of the VNNI image.
func PrepackBF16Sparse(b []float32, k, n int) (*Prepacked, error) {
	w, err := PrepackBF16(b, k, n)
	if err != nil {
		return nil, err
	}
	w.zero = scanZeroBF16VNNI(w.vnni, w.padK, w.padN)
	return w, nil
}

// PrepackINT8Sparse is PrepackINT8 plus the zero-block bitmap (the INT8
// skip is exact: a zero block contributes integer +0 to every lane).
func PrepackINT8Sparse(b []int8, k, n int) (*PrepackedINT8, error) {
	w, err := PrepackINT8(b, k, n)
	if err != nil {
		return nil, err
	}
	w.zero = scanZeroINT8VNNI(w.vnni, w.padK, w.padN)
	return w, nil
}

// BlockStats reports the operand's (nonzero, total) tile-block counts.
// Dense operands (no bitmap) report every block nonzero.
func (w *Prepacked) BlockStats() (nz, total int) {
	total = (w.padK / blockK) * (w.padN / blockN)
	if w.zero == nil {
		return total, total
	}
	return w.zero.nz, total
}

// BlockStats is the PrepackedINT8 twin of Prepacked.BlockStats.
func (w *PrepackedINT8) BlockStats() (nz, total int) {
	total = (w.padK / blockKi8) * (w.padN / blockNi8)
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
func BlockShapeINT8() (k, n int) { return blockKi8, blockNi8 }

// PredictCycles returns the steady-state AMX cycles one
// MatmulBF16PackedInto call with m activation rows consumes once the tile
// palette is installed (a cold unit adds cyclesConfig once): per 16-row
// stripe every column block pays TileZero + TileStore and every nonzero
// (kb, cb) block pays two TileLoads and one TDP. This is the calibrated
// cycles-∝-nonzero-blocks model the analytic layers price sparsity with;
// the emulator's deterministic accounting makes it exact, which
// sparse_test.go pins against measured Unit cycles.
func (w *Prepacked) PredictCycles(m int) uint64 {
	nz, _ := w.BlockStats()
	colBlocks := w.padN / blockN
	perStripe := uint64(colBlocks)*(cyclesTileZero+cyclesTileStore) +
		uint64(nz)*(2*cyclesTileLoad+cyclesTDP)
	return uint64(ceilDiv(m, blockM)) * perStripe
}

// PredictCycles is the PrepackedINT8 twin of Prepacked.PredictCycles,
// for MatmulINT8Packed calls.
func (w *PrepackedINT8) PredictCycles(m int) uint64 {
	nz, _ := w.BlockStats()
	colBlocks := w.padN / blockNi8
	perStripe := uint64(colBlocks)*(cyclesTileZero+cyclesTileStore) +
		uint64(nz)*(2*cyclesTileLoad+cyclesTDP)
	return uint64(ceilDiv(m, blockMi8)) * perStripe
}
