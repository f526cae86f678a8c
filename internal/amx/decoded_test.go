package amx

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// This file pins the decoded fast path (tdpBF16PSDecodedRows,
// tdpBUSDDecodedRows, the *Check tile ops and the decoded drivers) to the
// byte-accurate oracle: bit-identical results (NaN payloads excepted — see
// sameF32Word), identical cycle accounting, identical faults.

// bf16TileConfig builds the palette for one C(m×n) += A(m×2k)·B tile op.
func bf16TileConfig(m, n, kPairs int) TileConfig {
	cfg := TileConfig{}
	cfg.Tiles[tmmC] = TileShape{Rows: m, ColBytes: n * 4}
	cfg.Tiles[tmmA] = TileShape{Rows: m, ColBytes: kPairs * 4}
	cfg.Tiles[tmmB] = TileShape{Rows: kPairs, ColBytes: n * 4}
	return cfg
}

// int8TileConfig builds the palette for one C(m×n) += A(m×4k)·B tile op.
func int8TileConfig(m, n, kQuads int) TileConfig {
	cfg := TileConfig{}
	cfg.Tiles[tmmC] = TileShape{Rows: m, ColBytes: n * 4}
	cfg.Tiles[tmmA] = TileShape{Rows: m, ColBytes: kQuads * 4}
	cfg.Tiles[tmmB] = TileShape{Rows: kQuads, ColBytes: n * 4}
	return cfg
}

// runBF16Tile executes one C(m×n) += A(m×2k)·B tile op from the given
// operand images on kernel kern and returns the C image and the cycles
// charged — runINT8Tile's BF16 twin. The operand bytes are arbitrary bit
// patterns, so NaNs (quiet and signaling payloads), infinities and
// denormals flow through every kernel.
func runBF16Tile(t *testing.T, kern kernel, m, n, kPairs int, cImg, aImg, bImg []byte) (cOut []byte, cycles uint64) {
	t.Helper()
	u := NewUnit()
	cfg := bf16TileConfig(m, n, kPairs)
	must(t, u.Configure(cfg))
	start := u.Cycles()
	cOut = make([]byte, m*n*4)
	if kern == kernelBytes {
		must(t, u.TileLoad(tmmC, cImg, n*4))
		must(t, u.TileLoad(tmmA, aImg, kPairs*4))
		must(t, u.TileLoad(tmmB, bImg, n*4))
		must(t, u.TDPBF16PS(tmmC, tmmA, tmmB))
		must(t, u.TileStore(tmmC, cOut, n*4))
		return cOut, u.Cycles() - start
	}

	must(t, u.TileLoadCheck(tmmC, len(cImg), n*4))
	must(t, u.TileLoadCheck(tmmA, len(aImg), kPairs*4))
	must(t, u.TileLoadCheck(tmmB, len(bImg), n*4))
	c := make([]float32, m*n)
	for i := range c {
		c[i] = f32FromBits(binary.LittleEndian.Uint32(cImg[4*i:]))
	}
	if kern == kernelDecoded {
		// Pre-decode the images exactly the way the packers do: A
		// row-major lanes, B column-major lanes.
		lanes := 2 * kPairs
		aDec := make([]float32, m*lanes)
		for i := 0; i < m; i++ {
			for l := 0; l < lanes; l++ {
				off := i*kPairs*4 + l*2
				aDec[i*lanes+l] = BF16FromBytes(aImg[off], aImg[off+1]).Float32()
			}
		}
		bCols := make([]float32, n*lanes)
		for j := 0; j < n; j++ {
			for p := 0; p < kPairs; p++ {
				off := p*n*4 + j*4
				bCols[j*lanes+2*p] = BF16FromBytes(bImg[off], bImg[off+1]).Float32()
				bCols[j*lanes+2*p+1] = BF16FromBytes(bImg[off+2], bImg[off+3]).Float32()
			}
		}
		// Every lane through bf16Dot: the C image is an arbitrary
		// accumulator, and the drivers take the fast path only from +0.
		must(t, u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, c, n, aDec, lanes, bCols, lanes))
	} else {
		must(t, u.tdpCheck(false, tmmC, tmmA, tmmB))
		// The chain starts from TILEZERO, so silicon returns +0 + (E + O):
		// E + O itself, except that a -0 sum comes back +0. The C image
		// is added to it in the model's rounding, which is the oracle's
		// result unless both C and E + O are -0.
		// The stripe routine stores its one block with stride blockN.
		hw := hwConfig(cfg)
		var sum [tileLanes]float32
		one := uintptr(1)
		tdpbf16psStripe(&hw, &sum[0], &aImg[0], uintptr(kPairs*4), &bImg[0], uintptr(n*4), &[2]uintptr{}, &one, 1)
		for i := range c {
			c[i] = bf16Add(c[i], sum[i/n*blockN+i%n])
		}
	}
	must(t, u.TileStoreCheck(tmmC, m*n*4, n*4))
	for i, v := range c {
		binary.LittleEndian.PutUint32(cOut[4*i:], f32Bits(v))
	}
	return cOut, u.Cycles() - start
}

// kernels are the block kernels of either element type. The drivers run
// only the one kernelFor picks on this host, so every
// differential names each kernel explicitly.
var kernels = []struct {
	name string
	kern kernel
}{{"bytes", kernelBytes}, {"decoded", kernelDecoded}, {"hw", kernelHW}}

// needKernel skips t when kern cannot run on this host.
func needKernel(t *testing.T, kern kernel) {
	t.Helper()
	if kern == kernelHW && !hwAvailable {
		t.Skip("no AMX")
	}
}

// runINT8Tile executes one C(m×n) += A·B tile op from the given operand
// images on kernel kern and returns the C image and the cycles charged:
// the byte oracle moves the images through the tile file; the decoded
// path pre-decodes them the way the packers do (A row-major lanes, B
// column-major lanes); the hardware path runs the *Check ops and then
// one tdpbusdStripe of one block over the images themselves.
func runINT8Tile(t *testing.T, kern kernel, m, n, kQuads int, cImg, aImg, bImg []byte) (cOut []byte, cycles uint64) {
	t.Helper()
	u := NewUnit()
	cfg := int8TileConfig(m, n, kQuads)
	if err := u.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	start := u.Cycles()
	cOut = make([]byte, m*n*4)
	if kern == kernelBytes {
		must(t, u.TileLoad(tmmC, cImg, n*4))
		must(t, u.TileLoad(tmmA, aImg, kQuads*4))
		must(t, u.TileLoad(tmmB, bImg, n*4))
		must(t, u.TDPBUSD(tmmC, tmmA, tmmB))
		must(t, u.TileStore(tmmC, cOut, n*4))
		return cOut, u.Cycles() - start
	}

	must(t, u.TileLoadCheck(tmmC, len(cImg), n*4))
	must(t, u.TileLoadCheck(tmmA, len(aImg), kQuads*4))
	must(t, u.TileLoadCheck(tmmB, len(bImg), n*4))
	c := make([]int32, m*n)
	for i := range c {
		c[i] = int32(binary.LittleEndian.Uint32(cImg[4*i:]))
	}
	if kern == kernelDecoded {
		lanes := 4 * kQuads
		aDec := make([]uint8, m*lanes)
		for i := 0; i < m; i++ {
			copy(aDec[i*lanes:(i+1)*lanes], aImg[i*kQuads*4:])
		}
		bCols := make([]int8, n*lanes)
		for j := 0; j < n; j++ {
			for q := 0; q < kQuads; q++ {
				off := q*n*4 + j*4
				for l := 0; l < 4; l++ {
					bCols[j*lanes+4*q+l] = int8(bImg[off+l])
				}
			}
		}
		must(t, u.tdpBUSDDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, c, n, aDec, lanes, bCols, lanes))
	} else {
		must(t, u.tdpCheck(true, tmmC, tmmA, tmmB))
		// The chain starts from TILEZERO; the oracle's C image is its
		// starting accumulator, and wrapping int32 addition is
		// associative, so adding it afterwards is the same sum.
		hw := hwConfig(cfg)
		var sum [tileLanes]int32
		one := uintptr(1)
		tdpbusdStripe(&hw, &sum[0], &aImg[0], uintptr(kQuads*4), &bImg[0], uintptr(n*4), &[2]uintptr{}, &one, 1)
		for i := range c {
			c[i] += sum[i/n*blockN+i%n]
		}
	}
	must(t, u.TileStoreCheck(tmmC, m*n*4, n*4))
	for i, v := range c {
		binary.LittleEndian.PutUint32(cOut[4*i:], uint32(v))
	}
	return cOut, u.Cycles() - start
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// fillPattern fills dst with a deterministic byte stream that cycles
// through every byte value, seeded so different operands differ.
func fillPattern(dst []byte, seed byte) {
	x := seed
	for i := range dst {
		x = x*167 + 19
		dst[i] = x
	}
}

// isNaNBits reports whether bits encodes a float32 NaN.
func isNaNBits(bits uint32) bool {
	return bits&0x7F800000 == 0x7F800000 && bits&0x007FFFFF != 0
}

// sameF32Word compares two float32 bit patterns under the emulator's
// equivalence contract: bitwise equal, or both NaN. The BF16 kernels pick
// NaN payloads explicitly (bf16Dot), but the plain float32 arithmetic
// bf16Fast admits can still mint one from ∞−∞ after an overflow, and the
// default NaN that yields is the host FPU's (0xFFC00000 on x86, the tile
// unit's too; 0x7FC00000 on arm64). NaN-ness, infinity signs, signed
// zeros, denormals and every finite bit are still required to match
// exactly.
func sameF32Word(a, b uint32) bool {
	return a == b || (isNaNBits(a) && isNaNBits(b))
}

// cycleDiff returns the absolute difference of two cycle counts.
func cycleDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// f32ImagesEqual compares two little-endian float32 tile images word by
// word under sameF32Word.
func f32ImagesEqual(a, b []byte) bool {
	if len(a) != len(b) || len(a)%4 != 0 {
		return false
	}
	for i := 0; i < len(a); i += 4 {
		wa := uint32(a[i]) | uint32(a[i+1])<<8 | uint32(a[i+2])<<16 | uint32(a[i+3])<<24
		wb := uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
		if !sameF32Word(wa, wb) {
			return false
		}
	}
	return true
}

// TestDecodedBF16ExhaustiveShapes runs every configurable tile geometry
// (m, n, kPairs ∈ 1..16, with n and kPairs capped by the 64-byte row)
// through the decoded and the hardware kernel and requires the byte
// oracle's C image (modulo NaN payload) and cycle count. The operand
// bytes include NaN/Inf/denormal bf16 patterns by construction (all byte
// values occur).
func TestDecodedBF16ExhaustiveShapes(t *testing.T) {
	for _, k := range kernels[1:] {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			for m := 1; m <= MaxRows; m++ {
				for n := 1; n <= MaxColBytes/4; n++ {
					for kPairs := 1; kPairs <= MaxColBytes/4; kPairs++ {
						cImg := make([]byte, m*n*4)
						aImg := make([]byte, m*kPairs*4)
						bImg := make([]byte, kPairs*n*4)
						fillPattern(cImg, byte(m))
						fillPattern(aImg, byte(n+37))
						fillPattern(bImg, byte(kPairs+81))
						byteC, bc := runBF16Tile(t, kernelBytes, m, n, kPairs, cImg, aImg, bImg)
						gotC, gc := runBF16Tile(t, k.kern, m, n, kPairs, cImg, aImg, bImg)
						if !f32ImagesEqual(byteC, gotC) {
							t.Fatalf("m=%d n=%d kPairs=%d: %s C image diverges from byte path", m, n, kPairs, k.name)
						}
						if bc != gc {
							t.Fatalf("m=%d n=%d kPairs=%d: cycles %d (byte) != %d (%s)", m, n, kPairs, bc, gc, k.name)
						}
					}
				}
			}
		})
	}
}

// TestDecodedINT8ExhaustiveShapes is the TDPBUSD mirror, run for the
// decoded and the hardware kernel alike.
func TestDecodedINT8ExhaustiveShapes(t *testing.T) {
	for _, k := range kernels[1:] {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			for m := 1; m <= MaxRows; m++ {
				for n := 1; n <= MaxColBytes/4; n++ {
					for kQuads := 1; kQuads <= MaxColBytes/4; kQuads++ {
						cImg := make([]byte, m*n*4)
						aImg := make([]byte, m*kQuads*4)
						bImg := make([]byte, kQuads*n*4)
						fillPattern(cImg, byte(m+3))
						fillPattern(aImg, byte(n+59))
						fillPattern(bImg, byte(kQuads+113))
						byteC, bc := runINT8Tile(t, kernelBytes, m, n, kQuads, cImg, aImg, bImg)
						gotC, gc := runINT8Tile(t, k.kern, m, n, kQuads, cImg, aImg, bImg)
						if !reflect.DeepEqual(byteC, gotC) {
							t.Fatalf("m=%d n=%d kQuads=%d: %s C image diverges from byte path", m, n, kQuads, k.name)
						}
						if bc != gc {
							t.Fatalf("m=%d n=%d kQuads=%d: cycles %d (byte) != %d (%s)", m, n, kQuads, bc, gc, k.name)
						}
					}
				}
			}
		})
	}
}

// FuzzDecodedBF16Equivalence feeds arbitrary operand bit patterns and
// geometry through the byte oracle and, as sub-tests, the decoded and the
// hardware kernel. Because operands are raw bytes the corpus naturally
// exercises quiet/signaling NaN payloads, infinities and denormals; any
// accumulation-order or decode divergence shows up as a byte mismatch in
// the C image.
func FuzzDecodedBF16Equivalence(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(16), []byte{0x01, 0x80, 0x7F, 0xFF, 0x00, 0x80, 0x01, 0x00})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0xC0, 0x7F})             // quiet NaN bf16
	f.Add(uint8(2), uint8(3), uint8(5), []byte{0x80, 0x7F, 0x80, 0xFF}) // ±Inf bf16
	f.Add(uint8(4), uint8(4), uint8(2), []byte{0x01, 0x00, 0x80, 0x00}) // denormal bf16
	f.Fuzz(func(t *testing.T, mR, nR, kR uint8, data []byte) {
		m := int(mR%MaxRows) + 1
		n := int(nR%(MaxColBytes/4)) + 1
		kPairs := int(kR%(MaxColBytes/4)) + 1
		if len(data) == 0 {
			data = []byte{0}
		}
		grab := func(dst []byte, phase int) {
			for i := range dst {
				dst[i] = data[(i+phase)%len(data)]
			}
		}
		cImg := make([]byte, m*n*4)
		aImg := make([]byte, m*kPairs*4)
		bImg := make([]byte, kPairs*n*4)
		grab(cImg, 0)
		grab(aImg, 1)
		grab(bImg, 2)
		byteC, bc := runBF16Tile(t, kernelBytes, m, n, kPairs, cImg, aImg, bImg)
		for _, k := range kernels[1:] {
			t.Run(k.name, func(t *testing.T) {
				needKernel(t, k.kern)
				gotC, gc := runBF16Tile(t, k.kern, m, n, kPairs, cImg, aImg, bImg)
				if !f32ImagesEqual(byteC, gotC) {
					t.Fatalf("m=%d n=%d kPairs=%d: %s C image diverges from byte path", m, n, kPairs, k.name)
				}
				if bc != gc {
					t.Fatalf("m=%d n=%d kPairs=%d: cycle mismatch %d != %d (%s)", m, n, kPairs, bc, gc, k.name)
				}
			})
		}
	})
}

// FuzzDecodedINT8Equivalence is the TDPBUSD mirror of the BF16 fuzzer,
// pinning the decoded and the hardware kernel to the byte oracle.
func FuzzDecodedINT8Equivalence(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(16), []byte{0x80, 0x7F, 0xFF, 0x01})
	f.Add(uint8(3), uint8(2), uint8(7), []byte{0xFF})
	f.Fuzz(func(t *testing.T, mR, nR, kR uint8, data []byte) {
		m := int(mR%MaxRows) + 1
		n := int(nR%(MaxColBytes/4)) + 1
		kQuads := int(kR%(MaxColBytes/4)) + 1
		if len(data) == 0 {
			data = []byte{0}
		}
		grab := func(dst []byte, phase int) {
			for i := range dst {
				dst[i] = data[(i+phase)%len(data)]
			}
		}
		cImg := make([]byte, m*n*4)
		aImg := make([]byte, m*kQuads*4)
		bImg := make([]byte, kQuads*n*4)
		grab(cImg, 0)
		grab(aImg, 1)
		grab(bImg, 2)
		byteC, bc := runINT8Tile(t, kernelBytes, m, n, kQuads, cImg, aImg, bImg)
		for _, k := range kernels[1:] {
			t.Run(k.name, func(t *testing.T) {
				needKernel(t, k.kern)
				gotC, gc := runINT8Tile(t, k.kern, m, n, kQuads, cImg, aImg, bImg)
				if !reflect.DeepEqual(byteC, gotC) {
					t.Fatalf("m=%d n=%d kQuads=%d: %s C image diverges from byte path", m, n, kQuads, k.name)
				}
				if bc != gc {
					t.Fatalf("m=%d n=%d kQuads=%d: cycle mismatch %d != %d (%s)", m, n, kQuads, bc, gc, k.name)
				}
			})
		}
	})
}

// TestDecodedDriverMatchesByteDriverBF16 pins every BF16 kernel's full
// driver (pack → blocking → worker team → scatter) against the byte
// oracle's over a byte-only operand, bit for bit — including NaN and Inf
// activations — and requires cycle parity. Comparison is on float32 bits
// modulo NaN payload (sameF32Word).
func TestDecodedDriverMatchesByteDriverBF16(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			rng := rand.New(rand.NewSource(11))
			for _, s := range []struct{ m, k, n int }{
				{1, 64, 64}, {16, 32, 16}, {33, 48, 20}, {5, 129, 3}, {64, 64, 128},
			} {
				a, b := matrices(s.m, s.k, s.n, 0.5)
				// Inject special values: the kernels must agree on NaN
				// propagation and signed-infinity arithmetic, not just finite
				// data.
				a[0] = float32(math.NaN())
				a[len(a)-1] = float32(math.Inf(1))
				b[0] = float32(math.Inf(-1))
				b[len(b)-1] = math.Float32frombits(0x00000001) // denormal
				for i := 0; i < 5; i++ {
					a[rng.Intn(len(a))] = float32(math.NaN())
				}

				byteW, err := prepack(b, s.k, s.n, false)
				if err != nil {
					t.Fatal(err)
				}
				w, err := prepack(b, s.k, s.n, true)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float32, s.m*s.n)
				got := make([]float32, s.m*s.n)
				// Warm both kernels so the pooled units have the palette
				// installed; otherwise a one-time Configure charge lands on
				// whichever path happens to draw a cold unit.
				if _, err := matmulOn(kernelBytes, want, a, s.m, byteW); err != nil {
					t.Fatal(err)
				}
				if _, err := matmulOn(k.kern, got, a, s.m, w); err != nil {
					t.Fatal(err)
				}
				wantCycles, err := matmulOn(kernelBytes, want, a, s.m, byteW)
				if err != nil {
					t.Fatalf("%dx%dx%d byte driver: %v", s.m, s.k, s.n, err)
				}
				gotCycles, err := matmulOn(k.kern, got, a, s.m, w)
				if err != nil {
					t.Fatalf("%dx%dx%d %s driver: %v", s.m, s.k, s.n, k.name, err)
				}
				for i := range want {
					if !sameF32Word(f32Bits(want[i]), f32Bits(got[i])) {
						t.Fatalf("%dx%dx%d: C[%d] bits %08x (byte) != %08x (%s)",
							s.m, s.k, s.n, i, f32Bits(want[i]), f32Bits(got[i]), k.name)
					}
				}
				// Instruction-level cycle parity is pinned exhaustively at the
				// tile level; at the driver level the pooled units' palette
				// warm-up depends on team scheduling (and sync.Pool is
				// randomized under -race), so a driver may draw a cold unit and
				// pay one extra Configure. Allow exactly Configure-charge
				// multiples, nothing else.
				if diff := cycleDiff(wantCycles, gotCycles); diff%cyclesConfig != 0 {
					t.Fatalf("%dx%dx%d: cycles %d (byte) != %d (%s)", s.m, s.k, s.n, wantCycles, gotCycles, k.name)
				}
			}
		})
	}
}

// TestDecodedDriverMatchesByteDriverINT8 is the INT8 driver-level pin:
// the byte oracle over a byte-only operand against every kernel over a
// production one.
func TestDecodedDriverMatchesByteDriverINT8(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			for _, s := range []struct{ m, k, n int }{
				{1, 64, 16}, {16, 64, 16}, {33, 100, 20}, {64, 128, 64},
			} {
				a := make([]uint8, s.m*s.k)
				b := make([]int8, s.k*s.n)
				for i := range a {
					a[i] = uint8(i*29 + 7)
				}
				for i := range b {
					b[i] = int8(i%255 - 127)
				}
				byteW, err := prepack(b, s.k, s.n, false)
				if err != nil {
					t.Fatal(err)
				}
				w, err := prepack(b, s.k, s.n, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := matmulINT8On(kernelBytes, a, s.m, byteW); err != nil {
					t.Fatal(err)
				}
				if _, _, err := matmulINT8On(k.kern, a, s.m, w); err != nil {
					t.Fatal(err)
				}
				want, wantCycles, err := matmulINT8On(kernelBytes, a, s.m, byteW)
				if err != nil {
					t.Fatalf("%dx%dx%d byte driver: %v", s.m, s.k, s.n, err)
				}
				got, gotCycles, err := matmulINT8On(k.kern, a, s.m, w)
				if err != nil {
					t.Fatalf("%dx%dx%d %s driver: %v", s.m, s.k, s.n, k.name, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%dx%dx%d: %s result diverges from byte driver", s.m, s.k, s.n, k.name)
				}
				// Same Configure-charge tolerance as the BF16 driver test.
				if diff := cycleDiff(wantCycles, gotCycles); diff%cyclesConfig != 0 {
					t.Fatalf("%dx%dx%d: cycles %d (byte) != %d (%s)", s.m, s.k, s.n, wantCycles, gotCycles, k.name)
				}
			}
		})
	}
}

// TestDecodedTruncatedOperandFaultIdentity drops the last four bytes of
// each right-hand image — the tail of the final (kb, cb) block's B load —
// and requires the same wrapped ErrBounds from all three block kernels
// of both element types, on the inline path and split over a team. BF16
// k=64 and INT8 k=128 are both two k-blocks of an n=128 operand, so the
// images have equal sizes and even the byte counts in the message agree. A hardware kernel is
// given a short VNNI image, the bytes it reads; a decoded one a short
// decoded view.
func TestDecodedTruncatedOperandFaultIdentity(t *testing.T) {
	const n, kBlocks = 128, 2
	for _, tc := range []struct {
		name    string
		m, team int
	}{{"inline", 1, 1}, {"split", 64, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			useTeam(t, tc.team)
			af, bf := matrices(tc.m, kBlocks*blockK, n, 0.5)
			ai := make([]uint8, tc.m*kBlocks*blockKi8)
			bi := make([]int8, kBlocks*blockKi8*n)
			for i := range bi {
				bi[i] = int8(i%251 - 125)
			}
			bfW := func(decoded bool) *Prepacked {
				w, err := prepack(bf, kBlocks*blockK, n, decoded)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			i8W := func(decoded bool) *PrepackedINT8 {
				w, err := prepack(bi, kBlocks*blockKi8, n, decoded)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			bfBytes, bfDec, bfHW := bfW(false), bfW(true), bfW(false)
			i8Bytes, i8Dec, i8HW := i8W(false), i8W(true), i8W(false)
			bfBytes.vnni = bfBytes.vnni[:len(bfBytes.vnni)-4]
			bfDec.dec = bfDec.dec[:len(bfDec.dec)-2] // two bf16 lanes = four image bytes
			bfHW.vnni = bfHW.vnni[:len(bfHW.vnni)-4]
			i8Bytes.vnni = i8Bytes.vnni[:len(i8Bytes.vnni)-4]
			i8Dec.dec = i8Dec.dec[:len(i8Dec.dec)-4]
			i8HW.vnni = i8HW.vnni[:len(i8HW.vnni)-4]

			names := []string{"bf16 bytes", "bf16 decoded", "int8 bytes", "int8 decoded"}
			var errs [4]error
			_, errs[0] = matmulOn(kernelBytes, make([]float32, tc.m*n), af, tc.m, bfBytes)
			_, errs[1] = matmulOn(kernelDecoded, make([]float32, tc.m*n), af, tc.m, bfDec)
			_, _, errs[2] = matmulINT8On(kernelBytes, ai, tc.m, i8Bytes)
			_, _, errs[3] = matmulINT8On(kernelDecoded, ai, tc.m, i8Dec)
			for i, err := range errs {
				if !errors.Is(err, ErrBounds) {
					t.Errorf("%s: error %v does not wrap ErrBounds", names[i], err)
				}
				if errText(err) != errText(errs[0]) {
					t.Errorf("%s: %q, %s: %q", names[i], errText(err), names[0], errText(errs[0]))
				}
			}
			for _, hw := range []struct {
				name string
				run  func() error
			}{
				{"bf16 hw", func() error {
					_, err := matmulOn(kernelHW, make([]float32, tc.m*n), af, tc.m, bfHW)
					return err
				}},
				{"int8 hw", func() error {
					_, _, err := matmulINT8On(kernelHW, ai, tc.m, i8HW)
					return err
				}},
			} {
				t.Run(hw.name, func(t *testing.T) {
					needKernel(t, kernelHW)
					err := hw.run()
					if !errors.Is(err, ErrBounds) {
						t.Errorf("error %v does not wrap ErrBounds", err)
					}
					if errText(err) != errText(errs[0]) {
						t.Errorf("%q, %s: %q", errText(err), names[0], errText(errs[0]))
					}
				})
			}
		})
	}
}

// errText renders an error for equality comparison ("<nil>" for success).
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestDecodedFaultIdentity requires every fault the byte-path instructions
// raise — unconfigured tiles, bad indices, incompatible shapes — to come
// out of the decoded entry points with the *identical* error string, and
// to leave the cycle counter untouched on both.
func TestDecodedFaultIdentity(t *testing.T) {
	type setup func() *Unit
	initUnit := func() *Unit { return NewUnit() }
	okBF16 := func() *Unit {
		u := NewUnit()
		if err := u.Configure(bf16TileConfig(4, 4, 4)); err != nil {
			t.Fatal(err)
		}
		return u
	}
	mismatched := func() *Unit {
		u := NewUnit()
		cfg := bf16TileConfig(4, 4, 4)
		cfg.Tiles[tmmA].Rows = 3 // A rows != dst rows
		if err := u.Configure(cfg); err != nil {
			t.Fatal(err)
		}
		return u
	}
	bShapeBad := func() *Unit {
		u := NewUnit()
		cfg := bf16TileConfig(4, 4, 4)
		cfg.Tiles[tmmB].Rows = 2 // B rows != kPairs
		if err := u.Configure(cfg); err != nil {
			t.Fatal(err)
		}
		return u
	}
	cDec := make([]float32, 16)
	aDec := make([]float32, 32)
	bCols := make([]float32, 32)
	cI := make([]int32, 16)
	aU := make([]uint8, 32)
	bS := make([]int8, 32)

	cases := []struct {
		name      string
		mk        setup
		d, a, b   int
		wantErrIs error
	}{
		{"unconfigured", initUnit, tmmC, tmmA, tmmB, ErrNotConfigured},
		{"bad dst index", okBF16, 9, tmmA, tmmB, ErrBadTile},
		{"bad src index", okBF16, tmmC, -1, tmmB, ErrBadTile},
		{"A rows mismatch", mismatched, tmmC, tmmA, tmmB, ErrShape},
		{"B shape mismatch", bShapeBad, tmmC, tmmA, tmmB, ErrShape},
	}
	for _, tc := range cases {
		ub, ud := tc.mk(), tc.mk()
		cb0, cd0 := ub.Cycles(), ud.Cycles()
		uh := tc.mk()
		ch0 := uh.Cycles()
		errByte := ub.TDPBF16PS(tc.d, tc.a, tc.b)
		errDec := ud.tdpBF16PSDecodedRows(tc.d, tc.a, tc.b, MaxRows, false, cDec, 4, aDec, 8, bCols, 8)
		if errText(errByte) != errText(errDec) {
			t.Errorf("bf16 %s: byte %q != decoded %q", tc.name, errText(errByte), errText(errDec))
		}
		if !errors.Is(errDec, tc.wantErrIs) {
			t.Errorf("bf16 %s: decoded error %v, want %v", tc.name, errDec, tc.wantErrIs)
		}
		if errHW := uh.tdpCheck(false, tc.d, tc.a, tc.b); errText(errByte) != errText(errHW) {
			t.Errorf("bf16 %s: byte %q != hardware check %q", tc.name, errText(errByte), errText(errHW))
		}
		if ub.Cycles() != cb0 || ud.Cycles() != cd0 || uh.Cycles() != ch0 {
			t.Errorf("bf16 %s: fault advanced cycle counter", tc.name)
		}

		ub, ud = tc.mk(), tc.mk()
		uh = tc.mk()
		ch0 = uh.Cycles()
		errByte = ub.TDPBUSD(tc.d, tc.a, tc.b)
		errDec = ud.tdpBUSDDecodedRows(tc.d, tc.a, tc.b, MaxRows, false, cI, 4, aU, 8, bS, 8)
		if errText(errByte) != errText(errDec) {
			t.Errorf("int8 %s: byte %q != decoded %q", tc.name, errText(errByte), errText(errDec))
		}
		if errHW := uh.tdpCheck(true, tc.d, tc.a, tc.b); errText(errByte) != errText(errHW) {
			t.Errorf("int8 %s: byte %q != hardware check %q", tc.name, errText(errByte), errText(errHW))
		}
		if uh.Cycles() != ch0 {
			t.Errorf("int8 %s: hardware check fault advanced the cycle counter", tc.name)
		}
	}
}

// TestDecodedSliceValidation covers the decoded-only fault class: strides
// below the operand widths and backing slices too short for the configured
// geometry, each a distinct sentinel.
func TestDecodedSliceValidation(t *testing.T) {
	u := NewUnit()
	if err := u.Configure(bf16TileConfig(4, 4, 4)); err != nil {
		t.Fatal(err)
	}
	c := make([]float32, 16)
	a := make([]float32, 32)
	b := make([]float32, 32)
	before := u.Cycles()
	if err := u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, c, 3, a, 8, b, 8); !errors.Is(err, ErrShape) {
		t.Errorf("narrow C stride: %v, want ErrShape", err)
	}
	if err := u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, c, 4, a, 7, b, 8); !errors.Is(err, ErrShape) {
		t.Errorf("narrow A stride: %v, want ErrShape", err)
	}
	if err := u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, c[:15], 4, a, 8, b, 8); !errors.Is(err, ErrBounds) {
		t.Errorf("short C: %v, want ErrBounds", err)
	}
	if err := u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, c, 4, a[:31], 8, b, 8); !errors.Is(err, ErrBounds) {
		t.Errorf("short A: %v, want ErrBounds", err)
	}
	if err := u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, c, 4, a, 8, b[:31], 8); !errors.Is(err, ErrBounds) {
		t.Errorf("short B: %v, want ErrBounds", err)
	}
	if u.Cycles() != before {
		t.Error("decoded slice faults advanced the cycle counter")
	}

	ui := NewUnit()
	if err := ui.Configure(int8TileConfig(4, 4, 4)); err != nil {
		t.Fatal(err)
	}
	ci := make([]int32, 16)
	au := make([]uint8, 64)
	bs := make([]int8, 64)
	if err := ui.tdpBUSDDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, ci, 4, au, 15, bs, 16); !errors.Is(err, ErrShape) {
		t.Errorf("int8 narrow A stride: %v, want ErrShape", err)
	}
	if err := ui.tdpBUSDDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, ci, 4, au[:60], 16, bs, 16); !errors.Is(err, ErrBounds) {
		t.Errorf("int8 short A: %v, want ErrBounds", err)
	}
}

// TestCheckOpsMatchByteOps requires the fault-and-cycles-only tile ops to
// fault with exactly the strings the data-moving ops produce, and to
// charge the same cycles on success.
func TestCheckOpsMatchByteOps(t *testing.T) {
	mk := func() *Unit {
		u := NewUnit()
		cfg := TileConfig{}
		cfg.Tiles[0] = TileShape{Rows: 16, ColBytes: 64}
		if err := u.Configure(cfg); err != nil {
			t.Fatal(err)
		}
		return u
	}
	mem := make([]byte, 16*64)
	short := make([]byte, 100)

	cases := []struct {
		name string
		run  func(u *Unit) error
		chk  func(u *Unit) error
	}{
		{"load ok", func(u *Unit) error { return u.TileLoad(0, mem, 64) },
			func(u *Unit) error { return u.TileLoadCheck(0, len(mem), 64) }},
		{"load short", func(u *Unit) error { return u.TileLoad(0, short, 64) },
			func(u *Unit) error { return u.TileLoadCheck(0, len(short), 64) }},
		{"load narrow stride", func(u *Unit) error { return u.TileLoad(0, mem, 32) },
			func(u *Unit) error { return u.TileLoadCheck(0, len(mem), 32) }},
		{"load bad tile", func(u *Unit) error { return u.TileLoad(9, mem, 64) },
			func(u *Unit) error { return u.TileLoadCheck(9, len(mem), 64) }},
		{"load unconfigured", func(u *Unit) error { return u.TileLoad(1, mem, 64) },
			func(u *Unit) error { return u.TileLoadCheck(1, len(mem), 64) }},
		{"store ok", func(u *Unit) error { return u.TileStore(0, mem, 64) },
			func(u *Unit) error { return u.TileStoreCheck(0, len(mem), 64) }},
		{"store short", func(u *Unit) error { return u.TileStore(0, short, 64) },
			func(u *Unit) error { return u.TileStoreCheck(0, len(short), 64) }},
		{"zero ok", func(u *Unit) error { return u.TileZero(0) },
			func(u *Unit) error { return u.TileZeroCheck(0) }},
		{"zero unconfigured", func(u *Unit) error { return u.TileZero(3) },
			func(u *Unit) error { return u.TileZeroCheck(3) }},
	}
	for _, tc := range cases {
		ub, uc := mk(), mk()
		b0, c0 := ub.Cycles(), uc.Cycles()
		errB, errC := tc.run(ub), tc.chk(uc)
		if errText(errB) != errText(errC) {
			t.Errorf("%s: byte op %q != check op %q", tc.name, errText(errB), errText(errC))
		}
		if db, dc := ub.Cycles()-b0, uc.Cycles()-c0; db != dc {
			t.Errorf("%s: cycles %d (byte) != %d (check)", tc.name, db, dc)
		}
	}
}

// TestWriteI32PreservesSNaNBits pins the writeI32 fix: an int32
// accumulator whose bit pattern happens to be a signaling NaN
// (0x7F800001) must reach memory unchanged. The old implementation routed
// the bits through a float32 round trip, which FP canonicalization is
// allowed to quieten (flipping bit 22 → 0x7FC00001).
func TestWriteI32PreservesSNaNBits(t *testing.T) {
	snanBits := []uint32{
		0x7F800001, // minimal-payload signaling NaN
		0x7F800000, // +Inf (payload neighbors matter too)
		0xFF800001, // negative signaling NaN
		0x7FBFFFFF, // maximal signaling payload
	}
	// Direct tile-level check.
	var tl tile
	for _, bits := range snanBits {
		tl.writeI32(0, 0, int32(bits))
		if got := uint32(tl.readI32(0, 0)); got != bits {
			t.Errorf("writeI32 round trip of %08x = %08x", bits, got)
		}
	}
	// End-to-end: load the pattern as the initial accumulator, multiply by
	// zero operands (acc unchanged), and require the stored bytes intact.
	u := NewUnit()
	if err := u.Configure(int8TileConfig(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	for _, bits := range snanBits {
		img := []byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)}
		if err := u.TileLoad(tmmC, img, 4); err != nil {
			t.Fatal(err)
		}
		if err := u.TileLoad(tmmA, make([]byte, 4), 4); err != nil {
			t.Fatal(err)
		}
		if err := u.TileLoad(tmmB, make([]byte, 4), 4); err != nil {
			t.Fatal(err)
		}
		if err := u.TDPBUSD(tmmC, tmmA, tmmB); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 4)
		if err := u.TileStore(tmmC, out, 4); err != nil {
			t.Fatal(err)
		}
		got := uint32(out[0]) | uint32(out[1])<<8 | uint32(out[2])<<16 | uint32(out[3])<<24
		if got != bits {
			t.Errorf("TDPBUSD accumulate of zero over %08x stored %08x", bits, got)
		}
	}
}

// TestPackersZeroOnlyPadding hands every pack routine a scratch buffer
// pre-filled with garbage (as pooled reuse does) and requires the payload
// correct and every padding byte/value zero — the contract that lets the
// packers skip the full-buffer clear.
func TestPackersZeroOnlyPadding(t *testing.T) {
	const rows, cols, padRows, padCols = 3, 5, 16, 32
	src := make([]float32, rows*cols)
	for i := range src {
		src[i] = float32(i)*0.375 - 2
	}

	t.Run("packBF16Into", func(t *testing.T) {
		dst := make([]byte, padRows*padCols*2)
		fillPattern(dst, 0xFF)
		packBF16Into(dst, src, rows, cols, padRows, padCols)
		want := make([]byte, len(dst))
		packBF16Into(want, src, rows, cols, padRows, padCols)
		if !reflect.DeepEqual(dst, want) {
			t.Fatal("stale scratch leaked through packBF16Into")
		}
	})
	t.Run("packBF16VNNIInto", func(t *testing.T) {
		dst := make([]byte, padRows*padCols*2)
		fillPattern(dst, 0xAB)
		packBF16VNNIInto(dst, src, rows, cols, padRows, padCols)
		want := PackBF16VNNI(src, rows, cols, padRows, padCols)
		if !reflect.DeepEqual(dst, want) {
			t.Fatal("stale scratch leaked through packBF16VNNIInto")
		}
	})
	t.Run("packBF16DecodedInto", func(t *testing.T) {
		dst := make([]float32, padRows*padCols)
		for i := range dst {
			dst[i] = float32(math.NaN())
		}
		packBF16DecodedInto(dst, src, rows, cols, padRows, padCols)
		for r := 0; r < padRows; r++ {
			for c := 0; c < padCols; c++ {
				got := dst[r*padCols+c]
				if r < rows && c < cols {
					if want := RoundFloat32(src[r*cols+c]); got != want {
						t.Fatalf("payload (%d,%d) = %v, want %v", r, c, got, want)
					}
				} else if f32Bits(got) != 0 {
					t.Fatalf("padding (%d,%d) = %v bits %08x, want +0", r, c, got, f32Bits(got))
				}
			}
		}
	})
	t.Run("packBF16DecodedBInto", func(t *testing.T) {
		dst := make([]float32, padRows*padCols)
		for i := range dst {
			dst[i] = float32(math.Inf(-1))
		}
		packBF16DecodedBInto(dst, src, rows, cols, padRows, padCols)
		for c := 0; c < padCols; c++ {
			for r := 0; r < padRows; r++ {
				got := dst[c*padRows+r]
				if r < rows && c < cols {
					if want := RoundFloat32(src[r*cols+c]); got != want {
						t.Fatalf("payload col %d row %d = %v, want %v", c, r, got, want)
					}
				} else if f32Bits(got) != 0 {
					t.Fatalf("padding col %d row %d = %v, want +0", c, r, got)
				}
			}
		}
	})
	t.Run("packU8Into", func(t *testing.T) {
		srcU := make([]uint8, rows*cols)
		for i := range srcU {
			srcU[i] = uint8(i + 1)
		}
		dst := make([]byte, padRows*padCols)
		fillPattern(dst, 0xEE)
		packU8Into(dst, srcU, rows, cols, padRows, padCols)
		want := make([]byte, len(dst))
		packU8Into(want, srcU, rows, cols, padRows, padCols)
		if !reflect.DeepEqual(dst, want) {
			t.Fatal("stale scratch leaked through packU8Into")
		}
	})
	t.Run("packS8VNNIInto", func(t *testing.T) {
		srcS := make([]int8, rows*cols)
		for i := range srcS {
			srcS[i] = int8(i*7 - 50)
		}
		dst := make([]byte, padRows*padCols)
		fillPattern(dst, 0xCD)
		packS8VNNIInto(dst, srcS, rows, cols, padRows, padCols)
		if want := PackS8VNNI(srcS, rows, cols, padRows, padCols); !reflect.DeepEqual(dst, want) {
			t.Fatal("stale scratch leaked through packS8VNNIInto")
		}
	})
	t.Run("packS8DecodedBInto", func(t *testing.T) {
		srcS := make([]int8, rows*cols)
		for i := range srcS {
			srcS[i] = int8(i*11 - 80)
		}
		dst := make([]int8, padRows*padCols)
		for i := range dst {
			dst[i] = -86
		}
		packS8DecodedBInto(dst, srcS, rows, cols, padRows, padCols)
		for c := 0; c < padCols; c++ {
			for r := 0; r < padRows; r++ {
				got := dst[c*padRows+r]
				if r < rows && c < cols {
					if want := srcS[r*cols+c]; got != want {
						t.Fatalf("payload col %d row %d = %d, want %d", c, r, got, want)
					}
				} else if got != 0 {
					t.Fatalf("padding col %d row %d = %d, want 0", c, r, got)
				}
			}
		}
	})
}
