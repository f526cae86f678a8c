package amx

import (
	"encoding/binary"
	"fmt"
)

// Tile-blocking geometry for INT8 matmul: each TDPBUSD consumes a
// 16×64 u8 A block and a 64×16 s8 B block (VNNI-packed into 16 rows of
// quads) and accumulates into a 16×16 int32 C block.
const (
	blockMi8 = MaxRows     // 16 output rows per tile
	blockKi8 = MaxColBytes // 64 u8 values per A row
	blockNi8 = MaxColBytes / 4
)

// int8MatmulConfig mirrors matmulConfig for the INT8 pipeline.
var int8MatmulConfig = TileConfig{Tiles: [NumTiles]TileShape{
	tmmC: {Rows: blockMi8, ColBytes: MaxColBytes},
	tmmA: {Rows: blockMi8, ColBytes: MaxColBytes},
	tmmB: {Rows: blockKi8 / 4, ColBytes: MaxColBytes},
}}

// PackU8 pads a row-major uint8 matrix to padRows × padCols.
func PackU8(src []uint8, rows, cols, padRows, padCols int) []byte {
	out := make([]byte, padRows*padCols)
	packU8Into(out, src, rows, cols, padRows, padCols)
	return out
}

// packU8Into writes the padded image of src into dst, overwriting every
// byte (dst may carry stale data from a previous use). Only the padding
// rows/columns are zeroed — the payload is copied exactly once.
func packU8Into(dst []byte, src []uint8, rows, cols, padRows, padCols int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*padCols:], src[r*cols:(r+1)*cols])
		clear(dst[r*padCols+cols : (r+1)*padCols])
	}
	clear(dst[rows*padCols : padRows*padCols])
}

// PackS8VNNI converts a row-major int8 matrix (rows × cols) into the
// 4-way VNNI layout TDPBUSD expects: packed row r holds, for each output
// column n, the quad (B[4r][n] … B[4r+3][n]). padRows must be a multiple
// of 4.
func PackS8VNNI(src []int8, rows, cols, padRows, padCols int) []byte {
	if padRows%4 != 0 {
		panic(fmt.Sprintf("amx: VNNI padRows %d must be a multiple of 4", padRows))
	}
	out := make([]byte, padRows*padCols)
	packS8VNNIInto(out, src, rows, cols, padRows, padCols)
	return out
}

// packS8VNNIInto writes the VNNI image of src into dst. Like the BF16
// packers it works on hoisted row slices — no per-element closure or
// bounds conditional — and zeroes only the padding region.
func packS8VNNIInto(dst []byte, src []int8, rows, cols, padRows, padCols int) {
	for pr := 0; pr < padRows/4; pr++ {
		drow := dst[pr*padCols*4 : (pr+1)*padCols*4]
		if 4*pr >= rows {
			clear(drow) // pure padding quad rows
			continue
		}
		if 4*pr+3 < rows {
			// Full quad: all four logical rows exist.
			row0 := src[(4*pr+0)*cols : (4*pr+0)*cols+cols]
			row1 := src[(4*pr+1)*cols : (4*pr+1)*cols+cols]
			row2 := src[(4*pr+2)*cols : (4*pr+2)*cols+cols]
			row3 := src[(4*pr+3)*cols : (4*pr+3)*cols+cols]
			for c := 0; c < cols; c++ {
				drow[c*4] = byte(row0[c])
				drow[c*4+1] = byte(row1[c])
				drow[c*4+2] = byte(row2[c])
				drow[c*4+3] = byte(row3[c])
			}
		} else {
			// Trailing partial quad: missing lanes are padding.
			var qrows [4][]int8
			for q := 0; q < 4; q++ {
				if r := 4*pr + q; r < rows {
					qrows[q] = src[r*cols : r*cols+cols]
				}
			}
			for c := 0; c < cols; c++ {
				for q, qr := range qrows {
					if qr != nil {
						drow[c*4+q] = byte(qr[c])
					} else {
						drow[c*4+q] = 0
					}
				}
			}
		}
		clear(drow[cols*4:]) // padding columns
	}
}

// packS8DecodedBInto writes the decoded view of src's VNNI image into
// dst: the signed lanes laid out column-major, dst[c*padRows+r] =
// src[r][c], padding zeroed — the INT8 twin of packBF16DecodedBInto.
// Column c's slice holds exactly the quad sequence TDPBUSD reads for
// output column c, contiguously.
func packS8DecodedBInto(dst []int8, src []int8, rows, cols, padRows, padCols int) {
	for c := 0; c < cols; c++ {
		dcol := dst[c*padRows : (c+1)*padRows]
		for r := 0; r < rows; r++ {
			dcol[r] = src[r*cols+c]
		}
		clear(dcol[rows:])
	}
	clear(dst[cols*padRows : padCols*padRows])
}

// PrepackedINT8 is a right-hand signed 8-bit GEMM operand converted once
// into TDPBUSD's 4-way VNNI layout — the INT8 counterpart of Prepacked.
type PrepackedINT8 struct {
	// K and N are the logical dimensions of the packed matrix.
	K, N       int
	padK, padN int
	vnni       []byte
	// dec is the decoded view of the VNNI image: the signed lanes
	// column-major (column c's padK lanes at dec[c*padK:]), built once at
	// prepack time for the decoded fast path, and only where that kernel
	// can be chosen (see prepackINT8).
	dec []int8
	// zero is the sparse tier's zero-block bitmap (sparse.go), nil on
	// dense operands. drive skips a marked block's TileLoads + TDP.
	zero *zeroBitmap
}

// PrepackINT8 packs a row-major int8 matrix (k × n) for reuse as the
// right-hand operand of MatmulINT8Packed: the VNNI byte image, plus its
// decoded column-major view on hosts without the tile unit.
func PrepackINT8(b []int8, k, n int) (*PrepackedINT8, error) {
	return prepackINT8(b, k, n, !hwAvailable)
}

// prepackINT8 is prepackBF16's INT8 twin: the VNNI image always, the
// decoded view when decoded is set.
func prepackINT8(b []int8, k, n int, decoded bool) (*PrepackedINT8, error) {
	if len(b) != k*n {
		return nil, fmt.Errorf("amx: int8 prepack operand size %d does not match %dx%d", len(b), k, n)
	}
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("amx: int8 prepack dimensions must be positive, got %dx%d", k, n)
	}
	padK := ceilDiv(k, blockKi8) * blockKi8
	padN := ceilDiv(n, blockNi8) * blockNi8
	w := &PrepackedINT8{K: k, N: n, padK: padK, padN: padN, vnni: PackS8VNNI(b, k, n, padK, padN)}
	if decoded {
		w.dec = make([]int8, padN*padK)
		packS8DecodedBInto(w.dec, b, k, n, padK, padN)
	}
	return w, nil
}

// MatmulINT8Packed computes C = A·W through the emulated AMX INT8
// pipeline for a prepacked right-hand operand: A is M×K unsigned 8-bit,
// W is K×N signed 8-bit, C accumulates int32 — exactly TDPBUSD's
// semantics (integer arithmetic, layout-only packing). It returns the
// M×N row-major result and the AMX cycles consumed.
func MatmulINT8Packed(a []uint8, m int, w *PrepackedINT8) ([]int32, uint64, error) {
	if w == nil {
		return nil, 0, fmt.Errorf("amx: nil prepacked operand")
	}
	if len(a) != m*w.K {
		return nil, 0, fmt.Errorf("amx: int8 matmul operand size %d does not match %dx%d", len(a), m, w.K)
	}
	if m <= 0 {
		return nil, 0, fmt.Errorf("amx: int8 matmul rows must be positive, got %d", m)
	}
	return matmulINT8Driver(a, m, w)
}

// int8KernelFor is the one place the INT8 block kernel is chosen:
// silicon when the host grants it (it reads the VNNI image every operand
// carries), else the decoded emulator when w carries its decoded view
// (every PrepackedINT8 built off AMX hosts does), else the byte oracle.
// All three produce the same results, faults and cycles, so the choice is
// invisible above this package.
func int8KernelFor(w *PrepackedINT8) kernel {
	switch {
	case hwAvailable:
		return kernelHW
	case w.dec != nil:
		return kernelDecoded
	}
	return kernelBytes
}

// matmulINT8Driver runs the product on the kernel int8KernelFor picks.
func matmulINT8Driver(a []uint8, m int, w *PrepackedINT8) ([]int32, uint64, error) {
	return matmulINT8On(int8KernelFor(w), a, m, w)
}

// matmulINT8On packs A into pooled scratch and hands the product to drive
// with kernel kern. The unsigned A image needs no decoding — its padded
// bytes are the lane values and the tile unit's layout — so every kernel
// shares it.
func matmulINT8On(kern kernel, a []uint8, m int, w *PrepackedINT8) ([]int32, uint64, error) {
	padM := ceilDiv(m, blockMi8) * blockMi8
	aScratch := getScratch(padM * w.padK)
	defer putScratch(aScratch)
	packU8Into(*aScratch, a, m, w.K, padM, w.padK)

	c := make([]int32, m*w.N)
	kBlocks := w.padK / blockKi8
	var (
		cycles uint64
		err    error
	)
	switch kern {
	case kernelHW:
		cycles, err = drive(int8MatmulConfig, int8HW{a: *aScratch, w: w}, c, m, w.N, kBlocks, w.zero)
	case kernelDecoded:
		cycles, err = drive(int8MatmulConfig, int8Decoded{a: *aScratch, w: w}, c, m, w.N, kBlocks, w.zero)
	default:
		cycles, err = drive(int8MatmulConfig, int8Bytes{a: *aScratch, w: w}, c, m, w.N, kBlocks, w.zero)
	}
	if err != nil {
		return nil, 0, err
	}
	return c, cycles, nil
}

// int8Bytes is the byte-accurate INT8 block kernel (TileLoad, TDPBUSD,
// TileStore), the oracle int8Decoded is pinned against.
type int8Bytes struct {
	a []byte // padded u8 image of A (packU8Into)
	w *PrepackedINT8
}

func (k int8Bytes) zero(pu *pooledUnit) error { return pu.u.TileZero(tmmC) }

func (k int8Bytes) mac(pu *pooledUnit, rb, cb, kb, _ int) error {
	aStride := k.w.padK     // bytes per packed A row (u8)
	bStride := k.w.padN * 4 // bytes per packed VNNI B row (quads)
	aOff := rb*blockMi8*aStride + kb*blockKi8
	if err := pu.u.TileLoad(tmmA, k.a[aOff:], aStride); err != nil {
		return err
	}
	bOff := kb*(blockKi8/4)*bStride + cb*blockNi8*4
	if err := pu.u.TileLoad(tmmB, k.w.vnni[bOff:], bStride); err != nil {
		return err
	}
	return pu.u.TDPBUSD(tmmC, tmmA, tmmB)
}

func (k int8Bytes) store(pu *pooledUnit) ([]int32, error) {
	cTile := pu.cTile[:blockMi8*blockNi8*4]
	if err := pu.u.TileStore(tmmC, cTile, blockNi8*4); err != nil {
		return nil, err
	}
	acc := pu.cDecI[:]
	for i := range acc {
		acc[i] = int32(binary.LittleEndian.Uint32(cTile[4*i:]))
	}
	return acc, nil
}

// int8Decoded is the decoded INT8 block kernel, the TDPBUSD mirror of
// bf16Decoded: identical faults and cycle accounting via the *Check
// variants, flat-slice MAC loop, int32 accumulator kept decoded (its byte
// image round-trips losslessly, so results are bit-identical).
type int8Decoded struct {
	a []byte // padded u8 image of A, shared with the byte kernel
	w *PrepackedINT8
}

func (k int8Decoded) zero(pu *pooledUnit) error {
	clear(pu.cDecI[:])
	return pu.u.TileZeroCheck(tmmC)
}

func (k int8Decoded) mac(pu *pooledUnit, rb, cb, kb, valid int) error {
	padK := k.w.padK         // bytes per packed A row (u8)
	bStrideB := k.w.padN * 4 // byte stride of the VNNI image the byte path would load
	aOff := rb*blockMi8*padK + kb*blockKi8
	if err := pu.u.TileLoadCheck(tmmA, len(k.a)-aOff, padK); err != nil {
		return err
	}
	// Bounds arithmetic of the byte path's VNNI load, applied to the
	// column-major decoded view's equal-sized backing.
	bOffB := kb*(blockKi8/4)*bStrideB + cb*blockNi8*4
	if err := pu.u.TileLoadCheck(tmmB, len(k.w.dec)-bOffB, bStrideB); err != nil {
		return err
	}
	bOff := cb*blockNi8*padK + kb*blockKi8
	return pu.u.tdpBUSDDecodedRows(tmmC, tmmA, tmmB, valid, pu.cDecI[:], blockNi8, k.a[aOff:], padK, k.w.dec[bOff:], padK)
}

func (k int8Decoded) store(pu *pooledUnit) ([]int32, error) {
	return pu.cDecI[:], pu.u.TileStoreCheck(tmmC, blockMi8*blockNi8*4, blockNi8*4)
}

// int8HW is the INT8 block kernel on the host's tile unit. Its zero, mac
// and store run exactly the decoded kernel's *Check ops — so faults and
// cycles are the emulator's, and cycles stay modelled — with every load
// validated against the bytes the instruction reads: the padded A image
// and the VNNI image of B, not the decoded view. mac only queues the
// validated block; store issues the block's whole k-chain in one
// tdpbusdChain call into pu.cDecI. TDPBUSD's integer arithmetic is exact,
// so results are bit-identical to the emulator's.
type int8HW struct {
	a []byte // padded u8 image of A, shared with the other kernels
	w *PrepackedINT8
}

func (k int8HW) zero(pu *pooledUnit) error {
	clear(pu.cDecI[:])
	pu.hwOffs = pu.hwOffs[:0]
	return pu.u.TileZeroCheck(tmmC)
}

func (k int8HW) mac(pu *pooledUnit, rb, cb, kb, _ int) error {
	aStride := k.w.padK     // bytes per packed A row (u8)
	bStride := k.w.padN * 4 // bytes per packed VNNI B row (quads)
	aOff := rb*blockMi8*aStride + kb*blockKi8
	if err := pu.u.TileLoadCheck(tmmA, len(k.a)-aOff, aStride); err != nil {
		return err
	}
	bOff := kb*(blockKi8/4)*bStride + cb*blockNi8*4
	if err := pu.u.TileLoadCheck(tmmB, len(k.w.vnni)-bOff, bStride); err != nil {
		return err
	}
	if err := pu.u.tdpBUSDCheck(tmmC, tmmA, tmmB); err != nil {
		return err
	}
	pu.hwOffs = append(pu.hwOffs, [2]uintptr{uintptr(aOff), uintptr(bOff)})
	return nil
}

func (k int8HW) store(pu *pooledUnit) ([]int32, error) {
	if err := pu.u.TileStoreCheck(tmmC, blockMi8*blockNi8*4, blockNi8*4); err != nil {
		return nil, err
	}
	// A block whose every k-block the bitmap skipped is zero already.
	if n := len(pu.hwOffs); n > 0 {
		tdpbusdChain(&pu.hwCfg, &pu.cDecI[0], blockNi8*4, &k.a[0], uintptr(k.w.padK),
			&k.w.vnni[0], uintptr(k.w.padN*4), &pu.hwOffs[0], n)
	}
	return pu.cDecI[:], nil
}

// hwTileCfg is LDTILECFG's 64-byte memory operand: byte 0 the palette
// (1), bytes 16–47 each tile's bytes per row as uint16, bytes 48–63 each
// tile's rows; unused tiles and reserved bytes zero.
type hwTileCfg [64]byte

// hwConfig encodes cfg for LDTILECFG. cfg has passed Configure's checks,
// so the encoded palette is one the instruction accepts.
func hwConfig(cfg TileConfig) (b hwTileCfg) {
	b[0] = 1
	for i, sh := range cfg.Tiles {
		binary.LittleEndian.PutUint16(b[16+2*i:], uint16(sh.ColBytes))
		b[48+i] = byte(sh.Rows)
	}
	return b
}

// ReferenceMatmulINT8 is the plain-loop reference for MatmulINT8Packed,
// over the unpacked operands.
func ReferenceMatmulINT8(a []uint8, b []int8, m, k, n int) []int32 {
	c := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += int32(a[i*k+kk]) * int32(b[kk*n+j])
			}
			c[i*n+j] = acc
		}
	}
	return c
}
