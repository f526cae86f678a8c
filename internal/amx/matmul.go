package amx

import (
	"encoding/binary"
	"fmt"

	"github.com/lia-sim/lia/internal/tensor"
)

// Tile-blocking geometry: each TDPBF16PS consumes a 16×32 bf16 A block
// and a 32×16 bf16 B block (VNNI-packed into 16 rows), each TDPBUSD a
// 16×64 u8 A block and a 64×16 s8 B block (16 rows of quads); both
// accumulate into a 16×16 block of 32-bit lanes.
const (
	blockM = MaxRows         // 16 output rows per tile
	blockK = MaxColBytes / 2 // 32 bf16 values per A row
	blockN = MaxColBytes / 4 // 16 32-bit outputs per C row
)

// tmm register roles used by the driver.
const (
	tmmC = 0
	tmmA = 1
	tmmB = 2
)

// matmulConfig is the tile palette the driver installs for both
// instructions: C, A and B are each 16 rows of 64 bytes.
var matmulConfig = TileConfig{Tiles: [NumTiles]TileShape{
	tmmC: {Rows: blockM, ColBytes: MaxColBytes},
	tmmA: {Rows: blockM, ColBytes: MaxColBytes},
	tmmB: {Rows: MaxRows, ColBytes: MaxColBytes},
}}

// packBF16Into writes the padded bf16 image of src into dst, overwriting
// every byte (dst may carry stale data from a previous use). Only the
// padding rows/columns are zeroed — the payload region is written
// exactly once, not zeroed and then overwritten, each row in one vector
// pass (tensor.PackBF16, BF16FromFloat32 lane for lane).
func packBF16Into(dst []byte, src []float32, rows, cols, padRows, padCols int) {
	for r := 0; r < rows; r++ {
		drow := dst[r*padCols*2 : (r+1)*padCols*2]
		tensor.PackBF16(drow, src[r*cols:r*cols+cols])
		clear(drow[cols*2:]) // padding columns
	}
	clear(dst[rows*padCols*2 : padRows*padCols*2]) // padding rows
}

// packBF16DecodedInto writes the padded, bf16-pre-rounded float32 image
// of src into dst — the decoded twin of packBF16Into: element (r, c)
// lands at dst[r*padCols+c] holding RoundFloat32(src[r][c]), which is
// bit-identical to decoding the byte image's bf16 lane. Padding is
// zeroed, the payload written once. It returns the payload's span.
func packBF16DecodedInto(dst []float32, src []float32, rows, cols, padRows, padCols int) bf16Span {
	span := emptySpan
	for r := 0; r < rows; r++ {
		srow := src[r*cols : r*cols+cols]
		drow := dst[r*padCols : (r+1)*padCols]
		for c, f := range srow {
			v := RoundFloat32(f)
			drow[c] = v
			span = span.with(v)
		}
		clear(drow[cols:])
	}
	clear(dst[rows*padCols : padRows*padCols])
	return span
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
		var row1 []float32 // nil for an odd trailing row: its pairs' second lanes are padding
		if r1 < rows {
			row1 = src[r1*cols : r1*cols+cols]
		}
		vnniPairRow(drow[:cols*4], row0, row1)
		clear(drow[cols*4:]) // padding columns
	}
}

// vnniPairRow writes the bf16 pair (row0[c], row1[c]) of every column c
// into drow[4c:4c+4], one little-endian word per pair; a nil row1 packs
// zero second lanes. It is packBF16VNNIInto's inner loop, kept apart so
// its few live values stay in registers.
func vnniPairRow(drow []byte, row0, row1 []float32) {
	if row1 == nil {
		for c, f := range row0 {
			binary.LittleEndian.PutUint32(drow[4*c:], uint32(BF16FromFloat32(f)))
		}
		return
	}
	row1 = row1[:len(row0)]
	for c, f := range row0 {
		binary.LittleEndian.PutUint32(drow[4*c:], uint32(BF16FromFloat32(f))|uint32(BF16FromFloat32(row1[c]))<<16)
	}
}

// packBF16DecodedBInto writes the decoded view of src's VNNI image into
// dst: the bf16-pre-rounded values laid out **column-major**,
// dst[c*padRows+r] = RoundFloat32(src[r][c]), padding zeroed. Column c's
// slice dst[c*padRows:] then holds exactly the lane sequence TDPBF16PS
// reads from the VNNI image for output column c — pair p at
// elements (2p, 2p+1) — but contiguously, so the decoded MAC loop is a
// flat dot product. It returns the payload's span.
func packBF16DecodedBInto(dst []float32, src []float32, rows, cols, padRows, padCols int) bf16Span {
	span := emptySpan
	for c := 0; c < cols; c++ {
		dcol := dst[c*padRows : (c+1)*padRows]
		span = roundStrided(dcol[:rows], src[c:], cols, span)
		clear(dcol[rows:])
	}
	clear(dst[cols*padRows : padCols*padRows])
	return span
}

// roundStrided sets dst[r] = RoundFloat32(src[r*stride]) for every r and
// returns span widened by those values. It is packBF16DecodedBInto's
// inner loop, kept apart so its few live values stay in registers.
func roundStrided(dst, src []float32, stride int, span bf16Span) bf16Span {
	for r, i := 0, 0; r < len(dst); r, i = r+1, i+stride {
		v := RoundFloat32(src[i])
		dst[r] = v
		span = span.with(v)
	}
	return span
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// operand is a right-hand GEMM operand converted once into the tile
// unit's VNNI layout. Building it is the per-weight cost LIA's §5
// kernels amortize: every product afterwards streams activations
// through the same immutable image, so the steady state never re-packs.
// Packing is layout-only — the stored values are the matrix's lanes
// (BF16FromFloat32 roundings for TDPBF16PS, the int8 values themselves
// for TDPBUSD), and the kernels read nothing else. E is the decoded
// lane type; Prepacked and PrepackedINT8 are its two instances.
type operand[E float32 | int8] struct {
	// K and N are the logical dimensions of the packed matrix.
	K, N int
	// padK is K padded to a k-block; padN is the VNNI image's row width in
	// columns (N padded to a column block here, a Growing operand's
	// capacity there).
	padK, padN int
	vnni       []byte
	// dec is the decoded view of the VNNI image: the same lanes, decoded,
	// column-major (column c's lanes at dec[c*decStride:], decStride =
	// padK here), built once at prepack time so the decoded fast path never
	// reassembles an operand from bytes. Built only where the decoded
	// kernel can be chosen (see prepack); span is its span (BF16 only).
	dec       []E
	decStride int
	span      bf16Span
	// zero is the sparse tier's zero-block bitmap (sparse.go), nil on
	// dense operands. drive skips a marked block's TileLoads + TDP.
	zero *zeroBitmap
}

// Prepacked is a right-hand BF16 operand, for MatmulBF16PackedInto.
type Prepacked = operand[float32]

// PrepackedINT8 is a right-hand signed 8-bit operand in TDPBUSD's 4-way
// VNNI layout, for MatmulINT8PackedInto.
type PrepackedINT8 = operand[int8]

// laneType is what an operand's element type decides outside the
// instruction: how wide a lane is in the tile images, which of its bits
// make it nonzero, and how the right operand is packed.
type laneType[E float32 | int8] struct {
	name  string // error-message prefix
	bytes int    // per lane in the tile images: 2 (bf16) or 1 (int8)
	// nonzero masks eight image bytes down to the bits that make their
	// lanes nonzero: all of an int8's, all but a bf16's sign (see sparse.go).
	nonzero uint64
	// vnni packs the right operand's VNNI image; decoded its column-major
	// decoded view, returning the view's span.
	vnni    func(src []E, rows, cols, padRows, padCols int) []byte
	decoded func(dst, src []E, rows, cols, padRows, padCols int) bf16Span
}

var (
	bf16Lanes = laneType[float32]{"", 2, 0x7FFF7FFF7FFF7FFF, PackBF16VNNI, packBF16DecodedBInto}
	int8Lanes = laneType[int8]{"int8 ", 1, ^uint64(0), PackS8VNNI,
		func(dst, src []int8, rows, cols, padRows, padCols int) bf16Span {
			packS8DecodedBInto(dst, src, rows, cols, padRows, padCols)
			return bf16Span{}
		}}
)

// lanesOf returns E's laneType.
func lanesOf[E float32 | int8]() *laneType[E] {
	if l, ok := any(&bf16Lanes).(*laneType[E]); ok {
		return l
	}
	return any(&int8Lanes).(*laneType[E])
}

// kBlocks is the operand's k-block count: one block is 64 bytes of every
// A row and 16 VNNI rows of B for both element types.
func (w *operand[E]) kBlocks() int { return w.padK * lanesOf[E]().bytes / MaxColBytes }

// PrepackBF16 packs a row-major float32 matrix (k × n) for reuse as the
// right-hand operand of MatmulBF16PackedInto: the VNNI byte image the tile
// unit reads, plus, on hosts without the tile unit, the decoded float32
// view the emulator reads.
func PrepackBF16(b []float32, k, n int) (*Prepacked, error) {
	return prepack(b, k, n, !hwAvailable)
}

// PrepackINT8 packs a row-major int8 matrix (k × n) for reuse as the
// right-hand operand of MatmulINT8PackedInto: the VNNI byte image, plus
// its decoded column-major view on hosts without the tile unit.
func PrepackINT8(b []int8, k, n int) (*PrepackedINT8, error) {
	return prepack(b, k, n, !hwAvailable)
}

// prepack builds the VNNI image and, when decoded is set, the decoded
// view. Production callers build the view only where kernelFor can pick
// the decoded kernel; tests set decoded to run that kernel on any host.
func prepack[E float32 | int8](b []E, k, n int, decoded bool) (*operand[E], error) {
	l := lanesOf[E]()
	if len(b) != k*n {
		return nil, fmt.Errorf("amx: %sprepack operand size %d does not match %dx%d", l.name, len(b), k, n)
	}
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("amx: %sprepack dimensions must be positive, got %dx%d", l.name, k, n)
	}
	blockLanes := MaxColBytes / l.bytes
	padK := ceilDiv(k, blockLanes) * blockLanes
	padN := ceilDiv(n, blockN) * blockN
	w := &operand[E]{K: k, N: n, padK: padK, padN: padN, vnni: l.vnni(b, k, n, padK, padN)}
	if decoded {
		w.dec, w.decStride = make([]E, padN*padK), padK
		w.span = l.decoded(w.dec, b, k, n, padK, padN)
	}
	return w, nil
}

// MatmulBF16PackedInto computes dst = A·W through the AMX tile pipeline
// for a prepacked right-hand operand: A is m×K row-major float32, rounded
// to bfloat16 as a BF16 kernel reads it, and accumulation is float32 in
// the tile unit's own order and rounding (bf16Dot), so the result is the
// one silicon computes. dst is the caller's m×N row-major destination
// (its length must be exactly m×W.N), every element overwritten; it
// returns the AMX cycles consumed.
func MatmulBF16PackedInto(dst, a []float32, m int, w *Prepacked) (uint64, error) {
	return matmulInto(dst, a, m, w)
}

// MatmulINT8PackedInto computes dst = A·W through the AMX INT8 pipeline
// for a prepacked right-hand operand: A is m×K unsigned 8-bit, W is K×N
// signed 8-bit, and dst (exactly m×N, every element overwritten)
// accumulates int32 — TDPBUSD's semantics (integer arithmetic,
// layout-only packing). It returns the AMX cycles consumed.
func MatmulINT8PackedInto(dst []int32, a []uint8, m int, w *PrepackedINT8) (uint64, error) {
	return matmulInto(dst, a, m, w)
}

// MatmulINT8Packed is MatmulINT8PackedInto into a new m×N result.
func MatmulINT8Packed(a []uint8, m int, w *PrepackedINT8) ([]int32, uint64, error) {
	var c []int32
	if w != nil && m > 0 {
		c = make([]int32, m*w.N)
	}
	cycles, err := MatmulINT8PackedInto(c, a, m, w)
	if err != nil {
		return nil, 0, err
	}
	return c, cycles, nil
}

// matmulInto validates an m-row product against w and runs it on the
// kernel kernelFor picks.
func matmulInto[A float32 | uint8, E float32 | int8, C float32 | int32](c []C, a []A, m int, w *operand[E]) (uint64, error) {
	if w == nil {
		return 0, fmt.Errorf("amx: nil prepacked operand")
	}
	name := lanesOf[E]().name
	if len(a) != m*w.K {
		return 0, fmt.Errorf("amx: %smatmul operand size %d does not match %dx%d", name, len(a), m, w.K)
	}
	if m <= 0 {
		return 0, fmt.Errorf("amx: %smatmul rows must be positive, got %d", name, m)
	}
	if len(c) != m*w.N {
		return 0, fmt.Errorf("amx: %smatmul destination size %d does not match %dx%d", name, len(c), m, w.N)
	}
	return matmulOn(kernelFor(w), c, a, m, w)
}

// kernelFor is the one place a block kernel is chosen, for both element
// types: the tile unit when the host grants it and w carries the VNNI
// image it reads (every operand built there does), else the decoded
// emulator, which reads w's decoded view (every operand built off AMX
// hosts carries one). Both produce the same results, faults and cycles,
// so the choice is invisible above this package.
func kernelFor[E float32 | int8](w *operand[E]) kernel {
	if hwAvailable && w.vnni != nil {
		return kernelHW
	}
	return kernelDecoded
}

// matmulOn packs A into pooled scratch in the form kernel kern reads and
// hands the product to drive. Blocking, team partition, fault checks and
// cycle accounting are drive's and therefore common; the full m×N result
// lands in c.
func matmulOn[A float32 | uint8, E float32 | int8, C float32 | int32](kern kernel, c []C, a []A, m int, w *operand[E]) (uint64, error) {
	lane := lanesOf[E]().bytes
	p := product[A, E, C]{t: tmulOf[A, E, C](), w: w, lane: lane, aStride: w.padK * lane, bStride: w.padN * 4}
	padM := ceilDiv(m, blockM) * blockM
	kBlocks := w.kBlocks()
	if kern == kernelDecoded {
		// A is decoded once per call into scratch: for BF16 the rounded
		// float32 lanes decoding the byte image would yield.
		lanes := p.t.scratch.get(padM * w.padK)
		defer p.t.scratch.put(lanes)
		span := p.t.decodeA(*lanes, a, m, w.K, padM, w.padK)
		return drive(matmulConfig, decodedKernel[A, E, C]{p, *lanes, bf16Fast(span, w.span)}, c, m, w.N, kBlocks, w.zero)
	}
	img := byteScratch.get(padM * p.aStride)
	defer byteScratch.put(img)
	p.t.packA(*img, a, m, w.K, padM, w.padK)
	return drive(matmulConfig, hwKernel[A, E, C]{p, *img}, c, m, w.N, kBlocks, w.zero)
}
