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
// slice dst[c*padRows:] then holds exactly the lane sequence the byte
// path reads from the VNNI image for output column c — pair p at
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

// Prepacked is a right-hand BF16 GEMM operand converted once into the
// VNNI tile layout. Building it is the per-weight cost LIA's §5 kernels
// amortize: every MatmulBF16PackedInto call afterwards streams activations
// through the same immutable image, so the steady state never re-packs.
// Packing is layout-only — the stored values are the BF16FromFloat32
// roundings of the matrix, and the kernels read nothing else.
type Prepacked struct {
	// K and N are the logical dimensions of the packed matrix.
	K, N int
	// padK is K padded to a k-block; padN is the VNNI image's row width in
	// columns (N padded to a column block here, a Growing operand's
	// capacity there).
	padK, padN int
	vnni       []byte
	// dec is the decoded view of the VNNI image: the same bf16-rounded
	// values as float32, column-major (column c's lanes at
	// dec[c*decStride:], decStride = padK here), built once at prepack
	// time so the decoded fast path never reassembles an operand from
	// bytes. Built only where the decoded kernel can be chosen (see
	// prepackBF16); span is its span.
	dec       []float32
	decStride int
	span      bf16Span
	// zero is the sparse tier's zero-block bitmap (sparse.go), nil on
	// dense operands. drive skips a marked block's TileLoads + TDP.
	zero *zeroBitmap
}

// PrepackBF16 packs a row-major float32 matrix (k × n) for reuse as the
// right-hand operand of MatmulBF16PackedInto: the VNNI byte image the tile
// unit and the byte-accurate oracle read, plus, on hosts without the tile
// unit, the decoded float32 view the emulator's fast path reads.
func PrepackBF16(b []float32, k, n int) (*Prepacked, error) {
	return prepackBF16(b, k, n, !hwAvailable)
}

// prepackBF16 builds the VNNI image and, when decoded is set, the decoded
// view. Production callers build the view only where bf16KernelFor can
// pick the decoded kernel; tests set decoded to run that kernel on any
// host, or clear it for an operand only the byte oracle (or silicon) can
// read.
func prepackBF16(b []float32, k, n int, decoded bool) (*Prepacked, error) {
	if len(b) != k*n {
		return nil, fmt.Errorf("amx: prepack operand size %d does not match %dx%d", len(b), k, n)
	}
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("amx: prepack dimensions must be positive, got %dx%d", k, n)
	}
	padK := ceilDiv(k, blockK) * blockK
	padN := ceilDiv(n, blockN) * blockN
	w := &Prepacked{K: k, N: n, padK: padK, padN: padN, vnni: PackBF16VNNI(b, k, n, padK, padN)}
	if decoded {
		w.dec = make([]float32, padN*padK)
		w.decStride = padK
		w.span = packBF16DecodedBInto(w.dec, b, k, n, padK, padN)
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

// bf16KernelFor is the one place the BF16 block kernel is chosen: the
// tile unit when the host grants it and w carries the VNNI image it
// reads (every operand built there does), else the decoded emulator when
// w carries its decoded view (every operand built off AMX hosts does),
// else the byte oracle. All three produce the same results, faults and
// cycles, so the choice is invisible above this package.
func bf16KernelFor(w *Prepacked) kernel {
	switch {
	case hwAvailable && w.vnni != nil:
		return kernelHW
	case w.dec != nil:
		return kernelDecoded
	}
	return kernelBytes
}

// matmulBF16Driver runs the product on the kernel bf16KernelFor picks.
func matmulBF16Driver(c, a []float32, m int, w *Prepacked) (uint64, error) {
	return matmulBF16On(bf16KernelFor(w), c, a, m, w)
}

// matmulBF16On packs A into pooled scratch in the form kernel kern reads
// and hands the product to drive. Blocking, team partition, fault checks
// and cycle accounting are drive's and therefore common; the full m×N
// result lands in c.
func matmulBF16On(kern kernel, c, a []float32, m int, w *Prepacked) (uint64, error) {
	padM := ceilDiv(m, blockM) * blockM
	kBlocks := w.padK / blockK
	if kern == kernelDecoded {
		// A is rounded once per call into float32 scratch — the same
		// values decoding the byte image would yield.
		aScratch := getScratchF32(padM * w.padK)
		defer putScratchF32(aScratch)
		span := packBF16DecodedInto(*aScratch, a, m, w.K, padM, w.padK)
		return drive(matmulConfig, bf16Decoded{a: *aScratch, w: w, fast: bf16Fast(span, w.span)}, c, m, w.N, kBlocks, w.zero)
	}
	aScratch := getScratch(padM * w.padK * 2)
	defer putScratch(aScratch)
	packBF16Into(*aScratch, a, m, w.K, padM, w.padK)
	if kern == kernelHW {
		return drive(matmulConfig, bf16HW{a: *aScratch, w: w}, c, m, w.N, kBlocks, w.zero)
	}
	return drive(matmulConfig, bf16Bytes{a: *aScratch, w: w}, c, m, w.N, kBlocks, w.zero)
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
// results are bit-identical). fast is bf16Fast of the two operands: the
// accumulator starts at +0 for every block, so it may run plain float32.
type bf16Decoded struct {
	a    []float32 // padded, bf16-pre-rounded A (packBF16DecodedInto)
	w    *Prepacked
	fast bool
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
	bOff := cb*blockN*k.w.decStride + kb*blockK
	return pu.u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, valid, k.fast, pu.cDecF[:], blockN, k.a[aOff:], padK, k.w.dec[bOff:], k.w.decStride)
}

func (k bf16Decoded) store(pu *pooledUnit) ([]float32, error) {
	return pu.cDecF[:], pu.u.TileStoreCheck(tmmC, blockM*blockN*4, blockN*4)
}

// bf16HW is the BF16 block kernel on the host's tile unit, int8HW's twin:
// zero, mac and store run the emulator's *Check ops — faults and modelled
// cycles are the emulator's — with every load validated against the bytes
// the instruction reads (the padded bf16 image of A, the VNNI image of
// B); mac queues the validated block and store issues the block's k-chain
// in one tdpbf16psChain call into pu.cDecF. The emulator computes in the
// tile unit's order and rounding, so results are bit-identical to it.
type bf16HW struct {
	a []byte // padded bf16 image of A (packBF16Into), shared with bf16Bytes
	w *Prepacked
}

func (k bf16HW) zero(pu *pooledUnit) error {
	clear(pu.cDecF[:])
	pu.hwOffs = pu.hwOffs[:0]
	return pu.u.TileZeroCheck(tmmC)
}

func (k bf16HW) mac(pu *pooledUnit, rb, cb, kb, _ int) error {
	aStride := k.w.padK * 2 // bytes per packed A row
	bStride := k.w.padN * 4 // bytes per packed VNNI B row (pairs)
	aOff := rb*blockM*aStride + kb*blockK*2
	if err := pu.u.TileLoadCheck(tmmA, len(k.a)-aOff, aStride); err != nil {
		return err
	}
	bOff := kb*(blockK/2)*bStride + cb*blockN*4
	if err := pu.u.TileLoadCheck(tmmB, len(k.w.vnni)-bOff, bStride); err != nil {
		return err
	}
	if err := pu.u.tdpBF16Check(tmmC, tmmA, tmmB); err != nil {
		return err
	}
	pu.hwOffs = append(pu.hwOffs, [2]uintptr{uintptr(aOff), uintptr(bOff)})
	return nil
}

func (k bf16HW) store(pu *pooledUnit) ([]float32, error) {
	if err := pu.u.TileStoreCheck(tmmC, blockM*blockN*4, blockN*4); err != nil {
		return nil, err
	}
	// A block whose every k-block the bitmap skipped is zero already.
	if n := len(pu.hwOffs); n > 0 {
		tdpbf16psChain(&pu.hwCfg, &pu.cDecF[0], blockN*4, &k.a[0], uintptr(k.w.padK*2),
			&k.w.vnni[0], uintptr(k.w.padN*4), &pu.hwOffs[0], n)
	}
	return pu.cDecF[:], nil
}

// ReferenceMatmulBF16 computes the same product with plain loops but
// identical numerics: bf16-rounded inputs and, per 32-lane k-block (one
// TDPBF16PS), bf16Dot. Tests compare the tile pipeline against it
// bit-for-bit.
func ReferenceMatmulBF16(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	var aL, bL [blockK]float32
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for k0 := 0; k0 < k; k0 += blockK {
				aL, bL = [blockK]float32{}, [blockK]float32{}
				for l := 0; l < blockK && k0+l < k; l++ {
					aL[l] = RoundFloat32(a[i*k+k0+l])
					bL[l] = RoundFloat32(b[(k0+l)*n+j])
				}
				acc = bf16Dot(acc, aL[:], bL[:])
			}
			c[i*n+j] = acc
		}
	}
	return c
}
