package amx

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// matrices returns deterministic float32 test operands.
func matrices(m, k, n int, seed float32) (a, b []float32) {
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	for i := range a {
		a[i] = float32(i%11) - 5 + seed
	}
	for i := range b {
		b[i] = float32(i%7) - 3 - seed
	}
	return a, b
}

// matmulBF16 is the unpacked-operand form the BF16 tests are written
// against: prepack B, then run matmulPacked (matmulINT8 is its INT8
// twin).
func matmulBF16(a, b []float32, m, k, n int) ([]float32, uint64, error) {
	w, err := PrepackBF16(b, k, n)
	if err != nil {
		return nil, 0, err
	}
	return matmulPacked(a, m, w)
}

// matmulPacked runs MatmulBF16PackedInto into a fresh m×N destination.
func matmulPacked(a []float32, m int, w *Prepacked) ([]float32, uint64, error) {
	var c []float32
	if w != nil && m > 0 {
		c = make([]float32, m*w.N)
	}
	cycles, err := MatmulBF16PackedInto(c, a, m, w)
	return c, cycles, err
}

// TestPackedMatchesLegacyBF16 requires a reused prepacked operand to
// reproduce a fresh prepack per product bit for bit (the per-call-packing
// entry point this test was written against is gone), including awkward
// non-multiple-of-tile shapes and the m=1 decode shape.
func TestPackedMatchesLegacyBF16(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{1, 64, 64},   // decode GEMV, single row block
		{16, 32, 16},  // exactly one tile
		{33, 48, 20},  // ragged everything
		{5, 129, 3},   // k padding dominates
		{64, 64, 128}, // multiple row blocks → worker pool
	} {
		a, b := matrices(s.m, s.k, s.n, 0.25)
		want, _, err := matmulBF16(a, b, s.m, s.k, s.n)
		if err != nil {
			t.Fatalf("%dx%dx%d legacy: %v", s.m, s.k, s.n, err)
		}
		pre, err := PrepackBF16(b, s.k, s.n)
		if err != nil {
			t.Fatalf("%dx%dx%d prepack: %v", s.m, s.k, s.n, err)
		}
		for rep := 0; rep < 3; rep++ { // reuse must not drift
			got, _, err := matmulPacked(a, s.m, pre)
			if err != nil {
				t.Fatalf("%dx%dx%d packed: %v", s.m, s.k, s.n, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%dx%dx%d rep %d: reused image diverges from a fresh one", s.m, s.k, s.n, rep)
			}
		}
		ref := ReferenceMatmulBF16(a, b, s.m, s.k, s.n)
		if !reflect.DeepEqual(want, ref) {
			t.Fatalf("%dx%dx%d: tile pipeline diverges from reference", s.m, s.k, s.n)
		}
	}
}

// TestPackedMatchesLegacyINT8 is the TDPBUSD mirror of the BF16 test: a
// reused prepacked image against a fresh prepack per product (the
// unpacked-operand entry point this test was written against is gone).
func TestPackedMatchesLegacyINT8(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{1, 64, 16}, {16, 64, 16}, {33, 100, 20}, {64, 128, 64},
	} {
		a := make([]uint8, s.m*s.k)
		b := make([]int8, s.k*s.n)
		for i := range a {
			a[i] = uint8(i * 13)
		}
		for i := range b {
			b[i] = int8(i%251 - 125)
		}
		want, _, err := matmulINT8(a, b, s.m, s.k, s.n)
		if err != nil {
			t.Fatalf("%dx%dx%d legacy: %v", s.m, s.k, s.n, err)
		}
		pre, err := PrepackINT8(b, s.k, s.n)
		if err != nil {
			t.Fatalf("%dx%dx%d prepack: %v", s.m, s.k, s.n, err)
		}
		for rep := 0; rep < 3; rep++ {
			got, _, err := MatmulINT8Packed(a, s.m, pre)
			if err != nil {
				t.Fatalf("%dx%dx%d packed: %v", s.m, s.k, s.n, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%dx%dx%d rep %d: packed result diverges from legacy", s.m, s.k, s.n, rep)
			}
		}
		if ref := ReferenceMatmulINT8(a, b, s.m, s.k, s.n); !reflect.DeepEqual(want, ref) {
			t.Fatalf("%dx%dx%d: tile pipeline diverges from reference", s.m, s.k, s.n)
		}
	}
}

// TestScratchReuseNoStaleData interleaves differently-shaped products so
// pooled pack buffers are handed shrinking operands; stale bytes from the
// larger predecessor must never leak into the smaller product.
func TestScratchReuseNoStaleData(t *testing.T) {
	big, bigB := matrices(48, 96, 48, 1)
	small, smallB := matrices(3, 10, 5, 2)
	wantSmall := ReferenceMatmulBF16(small, smallB, 3, 10, 5)
	for rep := 0; rep < 4; rep++ {
		if _, _, err := matmulBF16(big, bigB, 48, 96, 48); err != nil {
			t.Fatal(err)
		}
		got, _, err := matmulBF16(small, smallB, 3, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantSmall, got) {
			t.Fatalf("rep %d: small product corrupted by pooled scratch reuse", rep)
		}
	}
}

// TestPrepackValidation covers the error paths.
func TestPrepackValidation(t *testing.T) {
	if _, err := PrepackBF16(make([]float32, 5), 2, 3); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := PrepackBF16(nil, 0, 3); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, _, err := matmulPacked(make([]float32, 4), 2, nil); err == nil {
		t.Error("nil prepacked operand accepted")
	}
	pre, err := PrepackBF16(make([]float32, 6), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := matmulPacked(make([]float32, 3), 1, pre); err == nil {
		t.Error("mismatched activation width accepted")
	}
	if _, err := PrepackINT8(make([]int8, 5), 2, 3); err == nil {
		t.Error("int8 size mismatch accepted")
	}
	if _, _, err := MatmulINT8Packed(nil, 1, nil); err == nil {
		t.Error("nil int8 prepacked operand accepted")
	}
}

// TestMatmulBF16PackedInto pins a product into a dirty destination
// against one into a fresh, zeroed one: identical bits across shapes
// (including multi-row-block stacked-decode shapes), matching cycles
// modulo palette reconfiguration (a pooled unit that already carries the
// matmul config skips the LDTILECFG charge, so back-to-back calls may
// differ by a multiple of cyclesConfig — same tolerance as the
// decoded-parity suite), full overwrite of a dirty destination, and size
// validation.
func TestMatmulBF16PackedInto(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{1, 64, 64},   // decode GEMV
		{8, 48, 20},   // stacked decode round, ragged shape
		{33, 129, 3},  // padding in every dimension
		{64, 64, 128}, // multiple row blocks → worker pool
	} {
		a, b := matrices(s.m, s.k, s.n, 1.5)
		pre, err := PrepackBF16(b, s.k, s.n)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCycles, err := matmulPacked(a, s.m, pre)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float32, s.m*s.n)
		for i := range dst {
			dst[i] = -1e30 // poison: every element must be overwritten
		}
		cycles, err := MatmulBF16PackedInto(dst, a, s.m, pre)
		if err != nil {
			t.Fatalf("%dx%dx%d into: %v", s.m, s.k, s.n, err)
		}
		if !reflect.DeepEqual(want, dst) {
			t.Fatalf("%dx%dx%d: result into a dirty destination diverges", s.m, s.k, s.n)
		}
		if !cyclesMatch(cycles, pre.PredictCycles(s.m)) || !cyclesMatch(wantCycles, pre.PredictCycles(s.m)) {
			t.Fatalf("%dx%dx%d: Into cycles %d and %d, PredictCycles %d", s.m, s.k, s.n, cycles, wantCycles, pre.PredictCycles(s.m))
		}
	}

	a, b := matrices(4, 32, 16, 0)
	pre, err := PrepackBF16(b, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MatmulBF16PackedInto(make([]float32, 4*16-1), a, 4, pre); err == nil {
		t.Error("short destination accepted")
	}
	if _, err := MatmulBF16PackedInto(make([]float32, 4*16+1), a, 4, pre); err == nil {
		t.Error("oversized destination accepted")
	}
	if _, err := MatmulBF16PackedInto(make([]float32, 4*16), a[:1], 4, pre); err == nil {
		t.Error("short A accepted")
	}
	if _, err := MatmulBF16PackedInto(make([]float32, 0), a, 0, pre); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := MatmulBF16PackedInto(nil, nil, 1, nil); err == nil {
		t.Error("nil operand accepted")
	}
}

// TestMatmulINT8PackedInto is TestMatmulBF16PackedInto's INT8 twin: a
// product into a poisoned destination equals MatmulINT8Packed's fresh
// result, and mis-sized operands are refused.
func TestMatmulINT8PackedInto(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{1, 64, 16}, {8, 100, 20}, {33, 129, 3}, {64, 128, 64},
	} {
		a := make([]uint8, s.m*s.k)
		b := make([]int8, s.k*s.n)
		for i := range a {
			a[i] = uint8(i*29 + 7)
		}
		for i := range b {
			b[i] = int8(i%255 - 127)
		}
		pre, err := PrepackINT8(b, s.k, s.n)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := MatmulINT8Packed(a, s.m, pre)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int32, s.m*s.n)
		for i := range dst {
			dst[i] = -1 << 31 // poison: every element must be overwritten
		}
		if _, err := MatmulINT8PackedInto(dst, a, s.m, pre); err != nil {
			t.Fatalf("%dx%dx%d into: %v", s.m, s.k, s.n, err)
		}
		if !reflect.DeepEqual(want, dst) {
			t.Fatalf("%dx%dx%d: result into a dirty destination diverges", s.m, s.k, s.n)
		}
	}

	pre, err := PrepackINT8(make([]int8, 64*16), 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint8, 4*64)
	for _, tc := range []struct {
		name string
		dst  []int32
		a    []uint8
		m    int
	}{
		{"short destination", make([]int32, 4*16-1), a, 4},
		{"oversized destination", make([]int32, 4*16+1), a, 4},
		{"short A", make([]int32, 4*16), a[:1], 4},
		{"zero rows", nil, nil, 0},
	} {
		if _, err := MatmulINT8PackedInto(tc.dst, tc.a, tc.m, pre); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := MatmulINT8PackedInto(nil, nil, 1, nil); err == nil {
		t.Error("nil operand accepted")
	}
}

// TestKernelFor pins the one kernel chooser over both element types and
// every layout set an operand can carry: the tile unit wherever the host
// grants it and the VNNI image is there, else the decoded emulator. Each
// choice computes the reference product where it has the layout it
// reads, and faults with ErrBounds, not a panic, where it does not (a
// VNNI-only operand off AMX, which no constructor builds).
func TestKernelFor(t *testing.T) {
	hwElse := func(k kernel) kernel {
		if hwAvailable {
			return kernelHW
		}
		return k
	}
	const m, k, n = 3, 70, 20
	af, bf := matrices(m, k, n, 0.5)
	a8 := make([]uint8, m*k)
	b8 := make([]int8, k*n)
	for i := range a8 {
		a8[i] = uint8(i*37 + 11)
	}
	for i := range b8 {
		b8[i] = int8(i%251 - 125)
	}
	for _, tc := range []struct {
		layout    string
		vnni, dec bool
		want      kernel
	}{
		{"vnni only", true, false, hwElse(kernelDecoded)},
		{"decoded only", false, true, kernelDecoded},
		{"both", true, true, hwElse(kernelDecoded)},
	} {
		wf, err := prepack(bf, k, n, true)
		if err != nil {
			t.Fatal(err)
		}
		w8, err := prepack(b8, k, n, true)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.vnni {
			wf.vnni, w8.vnni = nil, nil
		}
		if !tc.dec {
			wf.dec, w8.dec = nil, nil
		}
		if got := kernelFor(wf); got != tc.want {
			t.Errorf("bf16 %s: kernel %d, want %d", tc.layout, got, tc.want)
		}
		if got := kernelFor(w8); got != tc.want {
			t.Errorf("int8 %s: kernel %d, want %d", tc.layout, got, tc.want)
		}
		cf, _, err := matmulPacked(af, m, wf)
		if tc.want == kernelDecoded && !tc.dec {
			_, _, err8 := MatmulINT8Packed(a8, m, w8)
			if !errors.Is(err, ErrBounds) || !errors.Is(err8, ErrBounds) {
				t.Errorf("%s: errors %v and %v, want ErrBounds", tc.layout, err, err8)
			}
			continue
		}
		if err != nil {
			t.Fatalf("bf16 %s: %v", tc.layout, err)
		}
		sameBitsF32(t, cf, ReferenceMatmulBF16(af, bf, m, k, n), "bf16 "+tc.layout)
		c8, _, err := MatmulINT8Packed(a8, m, w8)
		if err != nil {
			t.Fatalf("int8 %s: %v", tc.layout, err)
		}
		if !reflect.DeepEqual(c8, ReferenceMatmulINT8(a8, b8, m, k, n)) {
			t.Errorf("int8 %s: product differs from ReferenceMatmulINT8", tc.layout)
		}
	}
}

// TestVNNIImagesReadBack reads PackBF16VNNI's and PackS8VNNI's images
// back lane by lane on odd shapes: lane (k, c) of B sits in pair row k/2
// (quad row k/4 for INT8) at column c, and must hold the source matrix's
// lane — BF16FromFloat32 of it, specials included — or zero in the
// padding, and the decoded view (packBF16DecodedBInto,
// packS8DecodedBInto) must hold the same lane. Off AMX no kernel reads
// the VNNI images, so this is what pins them on every host.
func TestVNNIImagesReadBack(t *testing.T) {
	for _, s := range []struct{ rows, cols int }{{1, 1}, {3, 5}, {31, 17}, {33, 15}, {65, 33}} {
		padRows, padCols := ceilDiv(s.rows, blockK)*blockK, ceilDiv(s.cols, blockN)*blockN
		bf := make([]float32, s.rows*s.cols)
		for i := range bf {
			bf[i] = math.Float32frombits(bf16Specials[i%len(bf16Specials)] ^ uint32(i/len(bf16Specials))<<16)
		}
		img := PackBF16VNNI(bf, s.rows, s.cols, padRows, padCols)
		dec := make([]float32, padRows*padCols)
		for i := range dec {
			dec[i] = float32(math.NaN())
		}
		packBF16DecodedBInto(dec, bf, s.rows, s.cols, padRows, padCols)
		if len(img) != padRows*padCols*2 {
			t.Fatalf("bf16 %dx%d: image of %d bytes, want %d", s.rows, s.cols, len(img), padRows*padCols*2)
		}
		for k := 0; k < padRows; k++ {
			for c := 0; c < padCols; c++ {
				var want uint16
				if k < s.rows && c < s.cols {
					want = uint16(BF16FromFloat32(bf[k*s.cols+c]))
				}
				lane := binary.LittleEndian.Uint16(img[(k/2)*padCols*4+4*c+2*(k&1):])
				if lane != want {
					t.Fatalf("bf16 %dx%d: VNNI lane (%d, %d) = %#04x, want %#04x", s.rows, s.cols, k, c, lane, want)
				}
				if got := f32Bits(dec[c*padRows+k]); got != uint32(lane)<<16 {
					t.Fatalf("bf16 %dx%d: decoded lane (%d, %d) = %#08x, VNNI lane %#04x", s.rows, s.cols, k, c, got, lane)
				}
			}
		}

		padRows = ceilDiv(s.rows, blockKi8) * blockKi8
		b8 := make([]int8, s.rows*s.cols)
		for i := range b8 {
			b8[i] = int8(i*37 + 1)
		}
		img = PackS8VNNI(b8, s.rows, s.cols, padRows, padCols)
		dec8 := make([]int8, padRows*padCols)
		for i := range dec8 {
			dec8[i] = -86
		}
		packS8DecodedBInto(dec8, b8, s.rows, s.cols, padRows, padCols)
		if len(img) != padRows*padCols {
			t.Fatalf("int8 %dx%d: image of %d bytes, want %d", s.rows, s.cols, len(img), padRows*padCols)
		}
		for k := 0; k < padRows; k++ {
			for c := 0; c < padCols; c++ {
				var want int8
				if k < s.rows && c < s.cols {
					want = b8[k*s.cols+c]
				}
				lane := int8(img[(k/4)*padCols*4+4*c+(k&3)])
				if lane != want {
					t.Fatalf("int8 %dx%d: VNNI lane (%d, %d) = %d, want %d", s.rows, s.cols, k, c, lane, want)
				}
				if got := dec8[c*padRows+k]; got != lane {
					t.Fatalf("int8 %dx%d: decoded lane (%d, %d) = %d, VNNI lane %d", s.rows, s.cols, k, c, got, lane)
				}
			}
		}
	}
}
