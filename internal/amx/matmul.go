package amx

import (
	"encoding/binary"
	"fmt"
)

// Tile-blocking geometry for BF16 matmul: each TDPBF16PS consumes a
// 16×32 bf16 A block and a 32×16 bf16 B block (VNNI-packed into 16 rows)
// and accumulates into a 16×16 float32 C block.
const (
	blockM = MaxRows         // 16 output rows per tile
	blockK = MaxColBytes / 2 // 32 bf16 values per A row
	blockN = MaxColBytes / 4 // 16 float32 outputs per C row
)

// tmm register roles used by the driver.
const (
	tmmC = 0
	tmmA = 1
	tmmB = 2
)

// matmulConfig is the tile palette the driver installs: C is 16×64B
// (16×16 f32), A is 16×64B (16×32 bf16), B is 16×64B (VNNI 32×16 bf16).
var matmulConfig = TileConfig{Tiles: [NumTiles]TileShape{
	tmmC: {Rows: blockM, ColBytes: MaxColBytes},
	tmmA: {Rows: blockM, ColBytes: MaxColBytes},
	tmmB: {Rows: blockK / 2, ColBytes: MaxColBytes},
}}

// PackBF16 converts a row-major float32 matrix (rows × cols) into a
// row-major bf16 byte buffer padded to padRows × padCols values.
func PackBF16(src []float32, rows, cols, padRows, padCols int) []byte {
	out := make([]byte, padRows*padCols*2)
	packBF16Into(out, src, rows, cols, padRows, padCols)
	return out
}

// packBF16Into writes the padded bf16 image of src into dst, overwriting
// every byte (dst may carry stale data from a previous use). Only the
// padding rows/columns are zeroed — the payload region is written
// exactly once, not zeroed and then overwritten.
func packBF16Into(dst []byte, src []float32, rows, cols, padRows, padCols int) {
	for r := 0; r < rows; r++ {
		srow := src[r*cols : r*cols+cols]
		drow := dst[r*padCols*2 : (r+1)*padCols*2]
		for c, f := range srow {
			v := BF16FromFloat32(f)
			drow[c*2] = byte(v)
			drow[c*2+1] = byte(v >> 8)
		}
		clear(drow[cols*2:]) // padding columns
	}
	clear(dst[rows*padCols*2 : padRows*padCols*2]) // padding rows
}

// packBF16DecodedInto writes the padded, bf16-pre-rounded float32 image
// of src into dst — the decoded twin of packBF16Into: element (r, c)
// lands at dst[r*padCols+c] holding RoundFloat32(src[r][c]), which is
// bit-identical to decoding the byte image's bf16 lane. Padding is
// zeroed, the payload written once.
func packBF16DecodedInto(dst []float32, src []float32, rows, cols, padRows, padCols int) {
	for r := 0; r < rows; r++ {
		srow := src[r*cols : r*cols+cols]
		drow := dst[r*padCols : (r+1)*padCols]
		for c, f := range srow {
			drow[c] = RoundFloat32(f)
		}
		clear(drow[cols:])
	}
	clear(dst[rows*padCols : padRows*padCols])
}

// PackBF16VNNI converts a row-major float32 matrix (rows × cols) into the
// VNNI tile layout AMX requires for the right-hand GEMM operand: logical
// row pairs (2r, 2r+1) are interleaved column-wise, so packed row r holds
// B[2r][0], B[2r+1][0], B[2r][1], B[2r+1][1], … The result is padded to
// padRows × padCols logical values (padRows must be even).
func PackBF16VNNI(src []float32, rows, cols, padRows, padCols int) []byte {
	if padRows%2 != 0 {
		panic(fmt.Sprintf("amx: VNNI padRows %d must be even", padRows))
	}
	out := make([]byte, padRows*padCols*2)
	packBF16VNNIInto(out, src, rows, cols, padRows, padCols)
	return out
}

// packBF16VNNIInto writes the VNNI image of src into dst, overwriting
// every byte. The inner loop works on hoisted row slices — no per-element
// closure call or in-bounds test — and zeroes only the padding region:
// prepack time is part of executor construction, so it is kept off the
// per-element slow path too.
func packBF16VNNIInto(dst []byte, src []float32, rows, cols, padRows, padCols int) {
	for pr := 0; pr < padRows/2; pr++ {
		r0, r1 := 2*pr, 2*pr+1
		drow := dst[pr*padCols*4 : (pr+1)*padCols*4]
		if r0 >= rows {
			// Pure padding pair rows.
			clear(drow)
			continue
		}
		row0 := src[r0*cols : r0*cols+cols]
		if r1 < rows {
			row1 := src[r1*cols : r1*cols+cols]
			for c := 0; c < cols; c++ {
				v0 := BF16FromFloat32(row0[c])
				v1 := BF16FromFloat32(row1[c])
				drow[c*4] = byte(v0)
				drow[c*4+1] = byte(v0 >> 8)
				drow[c*4+2] = byte(v1)
				drow[c*4+3] = byte(v1 >> 8)
			}
		} else {
			// Odd trailing row: the second lane of every pair is padding.
			for c := 0; c < cols; c++ {
				v0 := BF16FromFloat32(row0[c])
				drow[c*4] = byte(v0)
				drow[c*4+1] = byte(v0 >> 8)
				drow[c*4+2] = 0
				drow[c*4+3] = 0
			}
		}
		clear(drow[cols*4:]) // padding columns
	}
}

// packBF16DecodedBInto writes the decoded view of src's VNNI image into
// dst: the bf16-pre-rounded values laid out **column-major**,
// dst[c*padRows+r] = RoundFloat32(src[r][c]), padding zeroed. Column c's
// slice dst[c*padRows:] then holds exactly the lane sequence the byte
// path reads from the VNNI image for output column c — pair p at
// elements (2p, 2p+1) — but contiguously, so the decoded MAC loop is a
// flat dot product.
func packBF16DecodedBInto(dst []float32, src []float32, rows, cols, padRows, padCols int) {
	for c := 0; c < cols; c++ {
		dcol := dst[c*padRows : (c+1)*padRows]
		for r := 0; r < rows; r++ {
			dcol[r] = RoundFloat32(src[r*cols+c])
		}
		clear(dcol[rows:])
	}
	clear(dst[cols*padRows : padCols*padRows])
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Prepacked is a right-hand BF16 GEMM operand converted once into the
// VNNI tile layout. Building it is the per-weight cost LIA's §5 kernels
// amortize: every MatmulBF16Packed call afterwards streams activations
// through the same immutable image, so the steady state never re-packs.
// Packing is layout-only — the stored values are the same bf16 roundings
// MatmulBF16 produces per call, so results are bit-identical.
type Prepacked struct {
	// K and N are the logical dimensions of the packed matrix.
	K, N       int
	padK, padN int
	vnni       []byte
	// dec is the decoded view of the VNNI image: the same bf16-rounded
	// values as float32, column-major (column c's padK lanes at
	// dec[c*padK:]), built once at prepack time so the decoded fast path
	// never reassembles an operand from bytes. Nil only on byte-path-only
	// operands built by prepackBF16Bytes (the oracle used in tests).
	dec []float32
	// zero is the sparse tier's zero-block bitmap (sparse.go), nil on
	// dense operands. drive skips a marked block's TileLoads + TDP.
	zero *zeroBitmap
}

// PrepackBF16 packs a row-major float32 matrix (k × n) for reuse as the
// right-hand operand of MatmulBF16Packed, building both the VNNI byte
// image (the byte-accurate oracle's operand) and its decoded float32
// view (the fast path's).
func PrepackBF16(b []float32, k, n int) (*Prepacked, error) {
	w, err := prepackBF16Bytes(b, k, n)
	if err != nil {
		return nil, err
	}
	w.dec = make([]float32, w.padN*w.padK)
	packBF16DecodedBInto(w.dec, b, k, n, w.padK, w.padN)
	return w, nil
}

// prepackBF16Bytes builds a Prepacked with only the VNNI byte image —
// the operand form the byte-path oracle driver consumes. Production
// callers go through PrepackBF16; tests use this to pin the decoded
// fast path against the byte path.
func prepackBF16Bytes(b []float32, k, n int) (*Prepacked, error) {
	if len(b) != k*n {
		return nil, fmt.Errorf("amx: prepack operand size %d does not match %dx%d", len(b), k, n)
	}
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("amx: prepack dimensions must be positive, got %dx%d", k, n)
	}
	padK := ceilDiv(k, blockK) * blockK
	padN := ceilDiv(n, blockN) * blockN
	return &Prepacked{K: k, N: n, padK: padK, padN: padN, vnni: PackBF16VNNI(b, k, n, padK, padN)}, nil
}

// MatmulBF16 computes C = A·B through the emulated AMX tile pipeline:
// A is M×K, B is K×N, both row-major float32; inputs are rounded to
// bfloat16 (as a BF16 kernel would read them) and accumulation is float32
// in the emulator's reference order (pairwise per k-pair, in k order);
// silicon measured on the reference guest sums even and odd lanes in two
// chains and differs on ≈13.5% of outputs — ROADMAP item 11. It returns
// the M×N row-major result and the total AMX cycles consumed.
//
// This is the entry point for products whose right-hand operand changes
// on every call (attention's Kᵀ and V): B's decoded view is built into
// pooled scratch per call. A static weight is prepacked once with
// PrepackBF16 and multiplied with MatmulBF16Packed.
func MatmulBF16(a, b []float32, m, k, n int) ([]float32, uint64, error) {
	if len(a) != m*k || len(b) != k*n {
		return nil, 0, fmt.Errorf("amx: matmul operand sizes %d,%d do not match %dx%d · %dx%d", len(a), len(b), m, k, m, n)
	}
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, 0, fmt.Errorf("amx: matmul dimensions must be positive, got %dx%dx%d", m, k, n)
	}
	padK := ceilDiv(k, blockK) * blockK
	padN := ceilDiv(n, blockN) * blockN
	bScratch := getScratchF32(padK * padN)
	defer putScratchF32(bScratch)
	packBF16DecodedBInto(*bScratch, b, k, n, padK, padN)
	w := Prepacked{K: k, N: n, padK: padK, padN: padN, dec: *bScratch}
	c := make([]float32, m*n)
	cycles, err := matmulBF16Driver(c, a, m, &w)
	if err != nil {
		return nil, 0, err
	}
	return c, cycles, nil
}

// MatmulBF16Packed computes C = A·W for a prepacked right-hand operand,
// skipping the per-call VNNI conversion. A is M×K row-major float32; the
// result and cycle accounting match MatmulBF16(a, w, m, k, n) bit for bit.
func MatmulBF16Packed(a []float32, m int, w *Prepacked) ([]float32, uint64, error) {
	if w == nil {
		return nil, 0, fmt.Errorf("amx: nil prepacked operand")
	}
	if len(a) != m*w.K {
		return nil, 0, fmt.Errorf("amx: matmul operand size %d does not match %dx%d", len(a), m, w.K)
	}
	if m <= 0 {
		return nil, 0, fmt.Errorf("amx: matmul rows must be positive, got %d", m)
	}
	c := make([]float32, m*w.N)
	cycles, err := matmulBF16Driver(c, a, m, w)
	if err != nil {
		return nil, 0, err
	}
	return c, cycles, nil
}

// MatmulBF16PackedInto is MatmulBF16Packed writing into a caller-owned
// destination (len must be exactly m×W.N) instead of allocating one —
// the steady-state entry point for decode loops that reuse an output
// ring across rounds. Every element of dst is overwritten; results and
// cycle accounting are bit-identical to MatmulBF16Packed.
func MatmulBF16PackedInto(dst, a []float32, m int, w *Prepacked) (uint64, error) {
	if w == nil {
		return 0, fmt.Errorf("amx: nil prepacked operand")
	}
	if len(a) != m*w.K {
		return 0, fmt.Errorf("amx: matmul operand size %d does not match %dx%d", len(a), m, w.K)
	}
	if m <= 0 {
		return 0, fmt.Errorf("amx: matmul rows must be positive, got %d", m)
	}
	if len(dst) != m*w.N {
		return 0, fmt.Errorf("amx: matmul destination size %d does not match %dx%d", len(dst), m, w.N)
	}
	return matmulBF16Driver(dst, a, m, w)
}

// matmulBF16Driver packs A into pooled scratch and hands the product to
// drive with the block kernel the operand's views allow: the decoded
// kernel when it carries its decoded view (every production Prepacked
// does), the byte oracle otherwise (operands built by prepackBF16Bytes,
// in tests). Blocking, team partition, fault checks and cycle accounting
// are drive's and therefore common; the full m×N result lands in c.
func matmulBF16Driver(c, a []float32, m int, w *Prepacked) (uint64, error) {
	padM := ceilDiv(m, blockM) * blockM
	kBlocks := w.padK / blockK
	if w.dec == nil {
		aScratch := getScratch(padM * w.padK * 2)
		defer putScratch(aScratch)
		packBF16Into(*aScratch, a, m, w.K, padM, w.padK)
		return drive(matmulConfig, bf16Bytes{a: *aScratch, w: w}, c, m, w.N, kBlocks, w.zero)
	}
	// A is rounded once per call into float32 scratch — the same values
	// decoding the byte image would yield.
	aScratch := getScratchF32(padM * w.padK)
	defer putScratchF32(aScratch)
	packBF16DecodedInto(*aScratch, a, m, w.K, padM, w.padK)
	return drive(matmulConfig, bf16Decoded{a: *aScratch, w: w}, c, m, w.N, kBlocks, w.zero)
}

// bf16Bytes is the byte-accurate BF16 block kernel: every operand moves
// through the tile file byte for byte (TileLoad, TDPBF16PS, TileStore) —
// the instruction-level oracle bf16Decoded is pinned against.
type bf16Bytes struct {
	a []byte // padded bf16 image of A (packBF16Into)
	w *Prepacked
}

func (k bf16Bytes) zero(pu *pooledUnit) error { return pu.u.TileZero(tmmC) }

func (k bf16Bytes) mac(pu *pooledUnit, rb, cb, kb, _ int) error {
	aStride := k.w.padK * 2 // bytes per packed A row
	bStride := k.w.padN * 4 // bytes per packed VNNI B row (pairs)
	aOff := rb*blockM*aStride + kb*blockK*2
	if err := pu.u.TileLoad(tmmA, k.a[aOff:], aStride); err != nil {
		return err
	}
	bOff := kb*(blockK/2)*bStride + cb*blockN*4
	if err := pu.u.TileLoad(tmmB, k.w.vnni[bOff:], bStride); err != nil {
		return err
	}
	return pu.u.TDPBF16PS(tmmC, tmmA, tmmB)
}

func (k bf16Bytes) store(pu *pooledUnit) ([]float32, error) {
	cTile := pu.cTile[:blockM*blockN*4]
	if err := pu.u.TileStore(tmmC, cTile, blockN*4); err != nil {
		return nil, err
	}
	acc := pu.cDecF[:]
	for i := range acc {
		acc[i] = f32FromBits(binary.LittleEndian.Uint32(cTile[4*i:]))
	}
	return acc, nil
}

// bf16Decoded is the decoded BF16 block kernel: the same TileZero /
// TileLoad / TDP / TileStore sequence as bf16Bytes — identical faults and
// cycle accounting via the *Check variants — but the MAC loop reads flat
// pre-decoded slices and the accumulator stays float32 end to end (a
// byte image of the accumulator would round-trip losslessly anyway, so
// results are bit-identical).
type bf16Decoded struct {
	a []float32 // padded, bf16-pre-rounded A (packBF16DecodedInto)
	w *Prepacked
}

func (k bf16Decoded) zero(pu *pooledUnit) error {
	clear(pu.cDecF[:])
	return pu.u.TileZeroCheck(tmmC)
}

func (k bf16Decoded) mac(pu *pooledUnit, rb, cb, kb, valid int) error {
	padK := k.w.padK
	bStrideB := k.w.padN * 4 // byte stride of the VNNI image the byte path would load
	aOff := rb*blockM*padK + kb*blockK
	if err := pu.u.TileLoadCheck(tmmA, 2*(len(k.a)-aOff), padK*2); err != nil {
		return err
	}
	// The byte path loads the VNNI image at this offset; the bounds
	// arithmetic is identical even though the decoded view is
	// column-major.
	bOffB := kb*(blockK/2)*bStrideB + cb*blockN*4
	if err := pu.u.TileLoadCheck(tmmB, 2*len(k.w.dec)-bOffB, bStrideB); err != nil {
		return err
	}
	bOff := cb*blockN*padK + kb*blockK
	return pu.u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, valid, pu.cDecF[:], blockN, k.a[aOff:], padK, k.w.dec[bOff:], padK)
}

func (k bf16Decoded) store(pu *pooledUnit) ([]float32, error) {
	return pu.cDecF[:], pu.u.TileStoreCheck(tmmC, blockM*blockN*4, blockN*4)
}

// ReferenceMatmulBF16 computes the same product with plain loops but
// identical numerics (bf16-rounded inputs, f32 accumulation in the same
// k-order). Tests compare the tile pipeline against it bit-for-bit.
func ReferenceMatmulBF16(a, b []float32, m, k, n int) []float32 {
	ar := make([]float32, len(a))
	for i, v := range a {
		ar[i] = RoundFloat32(v)
	}
	br := make([]float32, len(b))
	for i, v := range b {
		br[i] = RoundFloat32(v)
	}
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				acc += ar[i*k+kk] * br[kk*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return c
}
