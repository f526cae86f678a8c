package amx

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// This file pins the sparse tier: zero-block bitmaps built at prepack
// time, the drivers' block skips (the decoded emulator and the tile unit
// taking the same skips, bit-identical to each other, to the dense
// product and to the reference over the pruned matrix on finite inputs),
// the exact cycles-∝-nonzero-blocks model, and the measurable speedup
// the skip buys.

// blockSparseBF16 builds a k×n matrix whose (blockK×blockN) tile blocks
// are zeroed according to zeroBlock(kb, cb); nonzero blocks get values
// from rng offset away from zero so no product cancels to ±0.
func blockSparseBF16(rng *rand.Rand, k, n int, zeroBlock func(kb, cb int) bool) []float32 {
	b := make([]float32, k*n)
	for r := 0; r < k; r++ {
		for c := 0; c < n; c++ {
			if !zeroBlock(r/blockK, c/blockN) {
				b[r*n+c] = float32(rng.NormFloat64()) + 0.25
			}
		}
	}
	return b
}

// sameF32ZeroTolerant compares float32 slices bit-for-bit except that
// +0.0 and -0.0 compare equal (the documented sparse-skip corner: a
// skipped block's ±0.0 adds can only flip the sign of an exactly-zero
// accumulator lane).
func sameF32ZeroTolerant(t *testing.T, got, want []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] == 0 && want[i] == 0 {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %g (bits %#x), want %g (bits %#x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestSparsePrepackMatchesDenseBF16 runs every BF16 kernel on the dense
// and the bitmap-skipping form of block-sparse operands: each kernel's
// sparse product equals its dense one and ReferenceMatmulBF16 over the
// pruned matrix (±0.0-tolerant), costs PredictCycles, and skipping a
// nonzero block changes it. The "bytes" leg requires the byte oracle
// over the sparse operand to equal the reference bit for bit and the
// bitmap, scanned from that image, to skip every planted block.
func TestSparsePrepackMatchesDenseBF16(t *testing.T) {
	type sparseCase struct {
		m, k, n int
		a, b    []float32
		planted map[int]bool // blocks zeroed, by cb·kBlocks + kb
	}
	var cases []sparseCase
	rng := rand.New(rand.NewSource(11))
	for _, sh := range []struct{ m, k, n int }{
		{1, 64, 48},   // decode GEMV, padded N
		{1, 96, 64},   // ragged K
		{5, 64, 64},   // partial row block
		{33, 128, 80}, // multi row block
	} {
		kb := ceilDiv(sh.k, blockK)
		total := kb * ceilDiv(sh.n, blockN)
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			zero := make(map[int]bool)
			for i := 0; i < int(frac*float64(total)); i++ {
				zero[i*7919%total] = true
			}
			b := blockSparseBF16(rng, sh.k, sh.n, func(kbi, cbi int) bool { return zero[cbi*kb+kbi] })
			a := make([]float32, sh.m*sh.k)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
			cases = append(cases, sparseCase{sh.m, sh.k, sh.n, a, b, zero})
		}
	}
	t.Run("bytes", func(t *testing.T) {
		for _, c := range cases {
			sparse, err := prepack(c.b, c.k, c.n, false)
			if err != nil {
				t.Fatal(err)
			}
			sparse.zero = sparse.scanZero()
			sameBitsF32(t, byteOracleBF16(t, c.a, c.m, sparse), ReferenceMatmulBF16(c.a, c.b, c.m, c.k, c.n),
				fmt.Sprintf("%dx%dx%d byte oracle vs ReferenceMatmulBF16", c.m, c.k, c.n))
			for blk := range c.planted {
				if !sparse.zero.skip(blk) {
					t.Fatalf("%dx%dx%d: planted zero block %d not skipped", c.m, c.k, c.n, blk)
				}
			}
		}
	})
	for _, kern := range kernels {
		t.Run(kern.name, func(t *testing.T) {
			needKernel(t, kern.kern)
			run := func(a []float32, m int, w *Prepacked) []float32 {
				t.Helper()
				c := make([]float32, m*w.N)
				cycles, err := matmulOn(kern.kern, c, a, m, w)
				if err != nil {
					t.Fatal(err)
				}
				if !cyclesMatch(cycles, w.PredictCycles(m)) {
					t.Fatalf("%d cycles, PredictCycles %d", cycles, w.PredictCycles(m))
				}
				return c
			}
			for _, c := range cases {
				dense, err := prepack(c.b, c.k, c.n, true)
				if err != nil {
					t.Fatal(err)
				}
				sparse, err := prepack(c.b, c.k, c.n, true)
				if err != nil {
					t.Fatal(err)
				}
				sparse.zero = sparse.scanZero()
				nz, tot := sparse.BlockStats()
				if total := ceilDiv(c.k, blockK) * ceilDiv(c.n, blockN); tot != total {
					t.Fatalf("total blocks %d, want %d", tot, total)
				}
				if tot-nz < len(c.planted) {
					// >=: a random nonzero block could still round to all-zero bf16 — not with +0.25 offset.
					t.Fatalf("%dx%dx%d: %d zero blocks found, want >= %d", c.m, c.k, c.n, tot-nz, len(c.planted))
				}

				got := run(c.a, c.m, sparse)
				sameF32ZeroTolerant(t, got, run(c.a, c.m, dense), "sparse vs dense")
				sameF32ZeroTolerant(t, got, ReferenceMatmulBF16(c.a, c.b, c.m, c.k, c.n), "sparse vs reference")

				// The differential has teeth: mark one nonzero block of a
				// copy of the bitmap as skippable and this kernel's product
				// must change.
				if nz == 0 {
					continue
				}
				z := &zeroBitmap{bits: slices.Clone(sparse.zero.bits), nz: nz - 1}
				flip := 0
				for z.skip(flip) {
					flip++
				}
				z.set(flip)
				mutOp := *sparse
				mutOp.zero = z
				if reflect.DeepEqual(run(c.a, c.m, &mutOp), got) {
					t.Fatalf("%dx%dx%d: skipping nonzero block %d left the %s product unchanged — the comparison cannot fail", c.m, c.k, c.n, flip, kern.name)
				}
			}
		})
	}
}

// TestSparsePrepackMatchesDenseINT8 runs every INT8 kernel on the dense
// and the bitmap-skipping form of one pruned operand, and pins each
// kernel's sparse product to ReferenceMatmulINT8 and its cycles to
// PredictCycles; the "bytes" leg pins the byte oracle over the sparse
// operand to ReferenceMatmulINT8.
func TestSparsePrepackMatchesDenseINT8(t *testing.T) {
	type sparseCase struct {
		m, k, n int
		a       []uint8
		b       []int8
	}
	var cases []sparseCase
	rng := rand.New(rand.NewSource(13))
	for _, sh := range []struct{ m, k, n int }{{1, 128, 48}, {7, 64, 32}, {20, 192, 64}} {
		kb := ceilDiv(sh.k, blockKi8)
		total := kb * ceilDiv(sh.n, blockN)
		zero := make(map[int]bool)
		for i := 0; i < total/2; i++ {
			zero[i*31%total] = true
		}
		b := make([]int8, sh.k*sh.n)
		for r := 0; r < sh.k; r++ {
			for c := 0; c < sh.n; c++ {
				if !zero[(c/blockN)*kb+r/blockKi8] {
					b[r*sh.n+c] = int8(rng.Intn(255) - 127)
				}
			}
		}
		a := make([]uint8, sh.m*sh.k)
		for i := range a {
			a[i] = uint8(rng.Intn(256))
		}
		cases = append(cases, sparseCase{sh.m, sh.k, sh.n, a, b})
	}
	t.Run("bytes", func(t *testing.T) {
		for _, c := range cases {
			sparse, err := prepack(c.b, c.k, c.n, false)
			if err != nil {
				t.Fatal(err)
			}
			sparse.zero = sparse.scanZero()
			if !reflect.DeepEqual(byteOracleINT8(t, c.a, c.m, sparse), ReferenceMatmulINT8(c.a, c.b, c.m, c.k, c.n)) {
				t.Fatalf("%dx%dx%d: byte oracle diverges from ReferenceMatmulINT8", c.m, c.k, c.n)
			}
		}
	})
	for _, kern := range kernels {
		t.Run(kern.name, func(t *testing.T) {
			needKernel(t, kern.kern)
			run := func(a []uint8, m int, w *PrepackedINT8) ([]int32, uint64) {
				t.Helper()
				c, cycles, err := matmulINT8On(kern.kern, a, m, w)
				if err != nil {
					t.Fatal(err)
				}
				return c, cycles
			}
			for _, c := range cases {
				sh := fmt.Sprintf("%dx%dx%d", c.m, c.k, c.n)
				dense, err := prepack(c.b, c.k, c.n, true)
				if err != nil {
					t.Fatal(err)
				}
				sparse, err := prepack(c.b, c.k, c.n, true)
				if err != nil {
					t.Fatal(err)
				}
				sparse.zero = sparse.scanZero()
				want, _ := run(c.a, c.m, dense)
				got, cySparse := run(c.a, c.m, sparse)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("int8 sparse diverged at %d: %d vs %d", i, got[i], want[i])
					}
				}
				if _, cyDense := run(c.a, c.m, dense); cySparse >= cyDense {
					t.Fatalf("int8 sparse cycles %d not below dense %d", cySparse, cyDense)
				}

				// The skips are exact: the reference over the pruned matrix,
				// at the modelled cycles (a cold unit may add one palette
				// configure).
				if !reflect.DeepEqual(ReferenceMatmulINT8(c.a, c.b, c.m, c.k, c.n), got) {
					t.Fatalf("%s: int8 sparse %s diverged from ReferenceMatmulINT8", sh, kern.name)
				}
				if !cyclesMatch(cySparse, sparse.PredictCycles(c.m)) {
					t.Fatalf("%s: %d cycles (%s), PredictCycles %d", sh, cySparse, kern.name, sparse.PredictCycles(c.m))
				}

				// The differential has teeth: mark one nonzero block of a copy
				// of the bitmap as skippable and this kernel's product must
				// change.
				z := &zeroBitmap{bits: slices.Clone(sparse.zero.bits)}
				flip := 0
				for z.skip(flip) {
					flip++
				}
				z.set(flip)
				mutOp := *sparse
				mutOp.zero = z
				if gotMut, _ := run(c.a, c.m, &mutOp); reflect.DeepEqual(gotMut, got) {
					t.Fatalf("%s: skipping nonzero block %d left the %s product unchanged — the comparison cannot fail", sh, flip, kern.name)
				}
			}
		})
	}
}

// TestSparseCyclesModelExact pins PredictCycles to the emulator's
// measured accounting, on sparse and dense operands of both element
// types: on a warm unit the product consumes exactly the predicted
// cycles; a cold unit adds at most one palette configure.
func TestSparseCyclesModelExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	k, n := 256, 128
	b := blockSparseBF16(rng, k, n, func(kbi, cbi int) bool { return (kbi+cbi)%2 == 0 })
	b8 := make([]int8, k*n)
	for i := range b8 {
		if ((i/n)/blockKi8+(i%n)/blockN)%2 == 1 {
			b8[i] = int8(rng.Intn(255) - 127)
		}
	}
	// Each operand is built by its production constructor and returns its
	// model and an m-row product on the kernel kernelFor picks.
	type built struct {
		predict func(m int) uint64
		run     func(m int) (uint64, error)
	}
	bf16 := func(w *Prepacked, err error) (built, error) {
		return built{w.PredictCycles, func(m int) (uint64, error) {
			_, cy, err := matmulPacked(randF32(rng, m*k), m, w)
			return cy, err
		}}, err
	}
	int8 := func(w *PrepackedINT8, err error) (built, error) {
		return built{w.PredictCycles, func(m int) (uint64, error) {
			_, cy, err := MatmulINT8Packed(make([]uint8, m*k), m, w)
			return cy, err
		}}, err
	}
	for _, build := range []struct {
		name string
		mk   func() (built, error)
	}{
		{"bf16 sparse", func() (built, error) { return bf16(PrepackBF16Sparse(b, k, n)) }},
		{"bf16 dense", func() (built, error) { return bf16(PrepackBF16(b, k, n)) }},
		{"int8 sparse", func() (built, error) { return int8(PrepackINT8Sparse(b8, k, n)) }},
		{"int8 dense", func() (built, error) { return int8(PrepackINT8(b8, k, n)) }},
	} {
		w, err := build.mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 9, 16} {
			want := w.predict(m)
			// Two calls: the second is guaranteed warm only when the caller
			// unit survives the pool round-trip, so accept the configure term.
			for call := 0; call < 2; call++ {
				cy, err := w.run(m)
				if err != nil {
					t.Fatal(err)
				}
				if cy != want && cy != want+cyclesConfig {
					t.Fatalf("%s m=%d call %d: measured %d cycles, predicted %d (+%d config)",
						build.name, m, call, cy, want, cyclesConfig)
				}
			}
		}
	}
	// Sanity: the checkerboard's predicted saving is exactly the skipped
	// blocks' TileLoads + TDP, for either element type.
	sparse, _ := PrepackBF16Sparse(b, k, n)
	dense, _ := PrepackBF16(b, k, n)
	sparse8, _ := PrepackINT8Sparse(b8, k, n)
	dense8, _ := PrepackINT8(b8, k, n)
	type model interface {
		BlockStats() (nz, total int)
		PredictCycles(m int) uint64
	}
	for _, c := range []struct {
		name          string
		sparse, dense model
	}{{"bf16", sparse, dense}, {"int8", sparse8, dense8}} {
		nz, total := c.sparse.BlockStats()
		if nz != total/2 {
			t.Fatalf("%s checkerboard nonzero blocks %d of %d, want half", c.name, nz, total)
		}
		saved := c.dense.PredictCycles(1) - c.sparse.PredictCycles(1)
		if want := uint64(total-nz) * (2*cyclesTileLoad + cyclesTDP); saved != want {
			t.Fatalf("%s predicted saving %d cycles, want %d", c.name, saved, want)
		}
	}
}

// TestSparseDecodeFaster is the acceptance gate: at 50% block sparsity
// the sparse GEMV must beat dense measurably — here by at least 1.3x in
// modeled cycles (the exact ratio is (9·cb+32·blocks)/(9·cb+32·nz)).
func TestSparseDecodeFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	k, n := 512, 256
	b := blockSparseBF16(rng, k, n, func(kbi, cbi int) bool { return (kbi+cbi)%2 == 0 })
	sparse, err := PrepackBF16Sparse(b, k, n)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := PrepackBF16(b, k, n)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, k)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	var cyS, cyD uint64
	for call := 0; call < 2; call++ { // second call is palette-warm
		_, cyS, err = matmulPacked(a, 1, sparse)
		if err != nil {
			t.Fatal(err)
		}
		_, cyD, err = matmulPacked(a, 1, dense)
		if err != nil {
			t.Fatal(err)
		}
	}
	if ratio := float64(cyD) / float64(cyS); ratio < 1.3 {
		t.Fatalf("50%% block sparsity speedup %.2fx (dense %d vs sparse %d cycles), want >= 1.3x", ratio, cyD, cyS)
	}
}

// FuzzSparsePrepack round-trips arbitrary block-zero patterns — including
// the all-zero and no-zero extremes seeded below — through dense and
// sparse images of the same matrix and requires equivalent products
// (±0.0-tolerant), bit-identical sparse products from every kernel the
// host can run, and a bitmap that counts at least the planted zero
// blocks.
func FuzzSparsePrepack(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(2), uint64(0))      // no zero blocks
	f.Add(int64(2), uint8(2), uint8(3), uint8(2), ^uint64(0))     // all blocks zero
	f.Add(int64(3), uint8(1), uint8(4), uint8(4), uint64(0xA5A5)) // checkerboard-ish
	f.Add(int64(4), uint8(16), uint8(1), uint8(1), uint64(1))     // single block, multi row
	f.Fuzz(func(t *testing.T, seed int64, mRaw, kbRaw, cbRaw uint8, mask uint64) {
		m := int(mRaw)%33 + 1
		kBlocks := int(kbRaw)%4 + 1
		colBlocks := int(cbRaw)%4 + 1
		// Offsets must stay non-negative: a negative seed would *grow* k/n
		// past the planned block counts and add unplanned blocks.
		kOff := int(seed % 7)
		if kOff < 0 {
			kOff = -kOff
		}
		nOff := int(seed % 5)
		if nOff < 0 {
			nOff = -nOff
		}
		k := kBlocks*blockK - kOff*2 // exercise ragged K too
		if k < 1 {
			k = kBlocks * blockK
		}
		n := colBlocks*blockN - nOff
		if n < 1 {
			n = colBlocks * blockN
		}
		rng := rand.New(rand.NewSource(seed))
		planted := 0
		b := blockSparseBF16(rng, k, n, func(kbi, cbi int) bool {
			return mask&(1<<uint((cbi*kBlocks+kbi)%64)) != 0
		})
		for cbi := 0; cbi < colBlocks; cbi++ {
			for kbi := 0; kbi < kBlocks; kbi++ {
				if mask&(1<<uint((cbi*kBlocks+kbi)%64)) != 0 {
					planted++
				}
			}
		}
		a := make([]float32, m*k)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}

		dense, err := PrepackBF16(b, k, n)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := PrepackBF16Sparse(b, k, n)
		if err != nil {
			t.Fatal(err)
		}
		nz, total := sparse.BlockStats()
		if total != kBlocks*colBlocks || total-nz < planted {
			t.Fatalf("block stats nz=%d total=%d, planted %d zero of %d", nz, total, planted, kBlocks*colBlocks)
		}
		want, _, err := matmulPacked(a, m, dense)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := matmulPacked(a, m, sparse)
		if err != nil {
			t.Fatal(err)
		}
		sameF32ZeroTolerant(t, got, want, "fuzz sparse vs dense")

		for _, kern := range kernels {
			if kern.kern == kernelHW && !hwAvailable {
				continue
			}
			w, err := prepack(b, k, n, true)
			if err != nil {
				t.Fatal(err)
			}
			w.zero = w.scanZero()
			c := make([]float32, m*n)
			if _, err := matmulOn(kern.kern, c, a, m, w); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(c[i]) {
					t.Fatalf("sparse %s vs production kernel at %d: %g vs %g", kern.name, i, c[i], got[i])
				}
			}
		}
	})
}

// TestLUTGEMVMatchesDequantizedReference pins the INT4 LUT kernel to a
// dequantize-then-reference-GEMM oracle within the tier's documented
// float tolerance, and its cycles model to the deterministic formula.
func TestLUTGEMVMatchesDequantizedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range []struct{ m, k, n, g int }{{1, 64, 48, 32}, {3, 96, 40, 64}, {2, 128, 64, 128}} {
		groups := ceilDiv(sh.k, sh.g)
		codes := make([]uint8, sh.k*sh.n)
		scales := make([]float32, groups*sh.n)
		for i := range codes {
			codes[i] = uint8(rng.Intn(16))
		}
		for i := range scales {
			scales[i] = float32(rng.Float64()*0.1 + 0.01)
		}
		w, err := PrepackINT4LUT(codes, sh.k, sh.n, sh.g, scales)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float32, sh.m*sh.k)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		got := make([]float32, sh.m*sh.n)
		cycles, err := w.GEMV4LUTInto(got, x, sh.m)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != w.PredictCycles(sh.m) {
			t.Fatalf("cycles %d != model %d", cycles, w.PredictCycles(sh.m))
		}
		// Oracle: dequantize and accumulate in float64.
		var maxAbs float64
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				var acc float64
				for kk := 0; kk < sh.k; kk++ {
					s := float64(RoundFloat32(scales[(kk/sh.g)*sh.n+j]))
					wv := s * float64(int(codes[kk*sh.n+j])-8)
					acc += float64(RoundFloat32(x[i*sh.k+kk])) * wv
				}
				if d := math.Abs(acc - float64(got[i*sh.n+j])); d > maxAbs {
					maxAbs = d
				}
			}
		}
		if maxAbs > 1e-3 {
			t.Fatalf("%dx%dx%d g=%d: LUT vs dequantized oracle max abs error %g > 1e-3", sh.m, sh.k, sh.n, sh.g, maxAbs)
		}
	}
}

func TestLUTPrepackValidation(t *testing.T) {
	codes := make([]uint8, 32*16)
	scales := make([]float32, 16)
	if _, err := PrepackINT4LUT(codes, 32, 16, 32, scales); err != nil {
		t.Fatalf("valid prepack rejected: %v", err)
	}
	if _, err := PrepackINT4LUT(codes[:10], 32, 16, 32, scales); err == nil {
		t.Fatal("short codes accepted")
	}
	if _, err := PrepackINT4LUT(codes, 32, 16, 0, scales); err == nil {
		t.Fatal("zero group accepted")
	}
	if _, err := PrepackINT4LUT(codes, 32, 16, 16, scales); err == nil {
		t.Fatal("scale count mismatch accepted")
	}
	bad := make([]uint8, 32*16)
	bad[5] = 16
	if _, err := PrepackINT4LUT(bad, 32, 16, 32, scales); err == nil {
		t.Fatal("out-of-range nibble accepted")
	}
}
