package amx

import (
	"fmt"
)

// blockKi8 is TDPBUSD's k-block: 64 u8 values per A row, a 64×16 s8 B
// block VNNI-packed into 16 rows of quads.
const blockKi8 = MaxColBytes

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
