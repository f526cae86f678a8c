package amx

import (
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
	// prepack time for the decoded fast path. Nil only on operands built
	// by prepackINT8Bytes (the byte-path oracle used in tests).
	dec []int8
	// zero is the sparse tier's zero-block bitmap (sparse.go), nil on
	// dense operands. Both drivers skip a marked block's TileLoads + TDP.
	zero *zeroBitmap
}

// PrepackINT8 packs a row-major int8 matrix (k × n) for reuse as the
// right-hand operand of MatmulINT8Packed, building both the VNNI byte
// image and its decoded column-major view.
func PrepackINT8(b []int8, k, n int) (*PrepackedINT8, error) {
	w, err := prepackINT8Bytes(b, k, n)
	if err != nil {
		return nil, err
	}
	w.dec = make([]int8, w.padN*w.padK)
	packS8DecodedBInto(w.dec, b, k, n, w.padK, w.padN)
	return w, nil
}

// prepackINT8Bytes builds a PrepackedINT8 with only the VNNI byte image
// for the byte-path oracle driver; tests use it to pin the decoded fast
// path against the byte path.
func prepackINT8Bytes(b []int8, k, n int) (*PrepackedINT8, error) {
	if len(b) != k*n {
		return nil, fmt.Errorf("amx: int8 prepack operand size %d does not match %dx%d", len(b), k, n)
	}
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("amx: int8 prepack dimensions must be positive, got %dx%d", k, n)
	}
	padK := ceilDiv(k, blockKi8) * blockKi8
	padN := ceilDiv(n, blockNi8) * blockNi8
	return &PrepackedINT8{K: k, N: n, padK: padK, padN: padN, vnni: PackS8VNNI(b, k, n, padK, padN)}, nil
}

// MatmulINT8 computes C = A·B through the emulated AMX INT8 pipeline:
// A is M×K unsigned 8-bit, B is K×N signed 8-bit, C accumulates int32 —
// exactly TDPBUSD's semantics. It returns the M×N row-major result and
// the AMX cycles consumed.
//
// B is packed into VNNI layout on every call; when B is a static weight,
// prepack it once with PrepackINT8 and use MatmulINT8Packed instead.
func MatmulINT8(a []uint8, b []int8, m, k, n int) ([]int32, uint64, error) {
	if len(a) != m*k || len(b) != k*n {
		return nil, 0, fmt.Errorf("amx: int8 matmul operand sizes %d,%d do not match %dx%d · %dx%d", len(a), len(b), m, k, k, n)
	}
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, 0, fmt.Errorf("amx: int8 matmul dimensions must be positive, got %dx%dx%d", m, k, n)
	}
	padK := ceilDiv(k, blockKi8) * blockKi8
	padN := ceilDiv(n, blockNi8) * blockNi8
	bScratch := getScratchI8(padK * padN)
	defer putScratchI8(bScratch)
	packS8DecodedBInto(*bScratch, b, k, n, padK, padN)
	w := PrepackedINT8{K: k, N: n, padK: padK, padN: padN, dec: *bScratch}
	return matmulINT8Driver(a, m, &w)
}

// MatmulINT8Packed computes C = A·W for a prepacked right-hand operand,
// skipping the per-call VNNI conversion; results match MatmulINT8 exactly
// (integer arithmetic, layout-only packing).
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

// matmulINT8Driver packs A into pooled scratch and runs the output grid
// — partitioned over the worker team when the product is large enough
// to split, inline on the caller otherwise — routing to the decoded fast
// path when the operand carries its decoded view (every production
// PrepackedINT8 does). The unsigned A image needs no decoding — its
// padded bytes are the lane values — so both paths share it.
func matmulINT8Driver(a []uint8, m int, w *PrepackedINT8) ([]int32, uint64, error) {
	padM := ceilDiv(m, blockMi8) * blockMi8
	aScratch := getScratch(padM * w.padK)
	defer putScratch(aScratch)
	packedA := *aScratch
	packU8Into(packedA, a, m, w.K, padM, w.padK)

	c := make([]int32, m*w.N)
	rowBlocks := padM / blockMi8
	colBlocks := w.padN / blockNi8
	kBlocks := w.padK / blockKi8

	var (
		cycles uint64
		err    error
	)
	if splits(m, rowBlocks, colBlocks, kBlocks) {
		cycles, err = runTiled(int8MatmulConfig, rowBlocks, colBlocks, func(pu *pooledUnit, rb, cbLo, cbHi int) error {
			return runInt8Blocks(pu, rb, cbLo, cbHi, kBlocks, packedA, c, m, w)
		})
	} else {
		cycles, err = runInline(int8MatmulConfig, rowBlocks, func(pu *pooledUnit, rb int) error {
			return runInt8Blocks(pu, rb, 0, colBlocks, kBlocks, packedA, c, m, w)
		})
	}
	if err != nil {
		return nil, 0, err
	}
	return c, cycles, nil
}

// runInt8Blocks routes one chunk to the decoded or the byte row-block
// kernel, whichever view the operand carries.
func runInt8Blocks(pu *pooledUnit, rb, cbLo, cbHi, kBlocks int, packedA []byte, c []int32, m int, w *PrepackedINT8) error {
	if w.dec != nil {
		return runInt8RowBlockDecoded(pu, rb, cbLo, cbHi, kBlocks, w.padK, w.padN, packedA, w.dec, c, m, w.N, w.zero)
	}
	return runInt8RowBlock(pu.u, rb, cbLo, cbHi, kBlocks, w.padK, w.padN, packedA, w.vnni, pu.cTile[:blockMi8*blockNi8*4], c, m, w.N, w.zero)
}

// runInt8RowBlock computes column blocks [cbLo, cbHi) of one 16-row
// stripe of the INT8 output. A non-nil zero bitmap elides a marked
// block's TileLoads and TDP; the integer skip is exact (a zero block
// adds +0 to every lane).
func runInt8RowBlock(u *Unit, rb, cbLo, cbHi, kBlocks, padK, padN int, packedA, packedB, cTile []byte, c []int32, m, n int, zero *zeroBitmap) error {
	aStride := padK     // bytes per packed A row (u8)
	bStride := padN * 4 // bytes per packed VNNI B row (quads)
	for cb := cbLo; cb < cbHi; cb++ {
		if err := u.TileZero(tmmC); err != nil {
			return err
		}
		for kb := 0; kb < kBlocks; kb++ {
			if zero.skipBlock(cb, kb, kBlocks) {
				continue
			}
			aOff := rb*blockMi8*aStride + kb*blockKi8
			if err := u.TileLoad(tmmA, packedA[aOff:], aStride); err != nil {
				return err
			}
			bOff := kb*(blockKi8/4)*bStride + cb*blockNi8*4
			if err := u.TileLoad(tmmB, packedB[bOff:], bStride); err != nil {
				return err
			}
			if err := u.TDPBUSD(tmmC, tmmA, tmmB); err != nil {
				return err
			}
		}
		if err := u.TileStore(tmmC, cTile, blockNi8*4); err != nil {
			return err
		}
		for r := 0; r < blockMi8; r++ {
			row := rb*blockMi8 + r
			if row >= m {
				break
			}
			for col := 0; col < blockNi8; col++ {
				j := cb*blockNi8 + col
				if j >= n {
					break
				}
				off := (r*blockNi8 + col) * 4
				c[row*n+j] = int32(uint32(cTile[off]) | uint32(cTile[off+1])<<8 |
					uint32(cTile[off+2])<<16 | uint32(cTile[off+3])<<24)
			}
		}
	}
	return nil
}

// runInt8RowBlockDecoded computes column blocks [cbLo, cbHi) of one
// 16-row stripe of the INT8 output through the decoded entry points —
// the TDPBUSD mirror of
// runRowBlockDecoded: identical faults and cycle accounting via the
// *Check variants, flat-slice MAC loop, int32 accumulator kept decoded
// (its byte image round-trips losslessly, so results are bit-identical).
func runInt8RowBlockDecoded(pu *pooledUnit, rb, cbLo, cbHi, kBlocks, padK, padN int, packedA []byte, decB []int8, c []int32, m, n int, zero *zeroBitmap) error {
	u := pu.u
	cDec := pu.cDecI[:blockMi8*blockNi8]
	// Rows of this stripe carrying real data; the padding rows' MAC work
	// is skipped (see runRowBlockDecoded).
	valid := m - rb*blockMi8
	if valid > blockMi8 {
		valid = blockMi8
	}
	aStride := padK      // bytes per packed A row (u8)
	bStrideB := padN * 4 // byte stride of the VNNI image the byte path would load
	bBytes := len(decB)
	for cb := cbLo; cb < cbHi; cb++ {
		if err := u.TileZeroCheck(tmmC); err != nil {
			return err
		}
		clear(cDec)
		for kb := 0; kb < kBlocks; kb++ {
			if zero.skipBlock(cb, kb, kBlocks) {
				continue
			}
			aOff := rb*blockMi8*aStride + kb*blockKi8
			if err := u.TileLoadCheck(tmmA, len(packedA)-aOff, aStride); err != nil {
				return err
			}
			// Bounds arithmetic of the byte path's VNNI load, applied to the
			// column-major decoded view's equal-sized backing.
			bOffB := kb*(blockKi8/4)*bStrideB + cb*blockNi8*4
			if err := u.TileLoadCheck(tmmB, bBytes-bOffB, bStrideB); err != nil {
				return err
			}
			bOff := cb*blockNi8*padK + kb*blockKi8
			if err := u.tdpBUSDDecodedRows(tmmC, tmmA, tmmB, valid, cDec, blockNi8, packedA[aOff:], aStride, decB[bOff:], padK); err != nil {
				return err
			}
		}
		if err := u.TileStoreCheck(tmmC, blockMi8*blockNi8*4, blockNi8*4); err != nil {
			return err
		}
		for r := 0; r < blockMi8; r++ {
			row := rb*blockMi8 + r
			if row >= m {
				break
			}
			cols := n - cb*blockNi8
			if cols > blockNi8 {
				cols = blockNi8
			}
			copy(c[row*n+cb*blockNi8:row*n+cb*blockNi8+cols], cDec[r*blockNi8:r*blockNi8+cols])
		}
	}
	return nil
}

// ReferenceMatmulINT8 is the plain-loop reference for MatmulINT8.
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
