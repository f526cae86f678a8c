package amx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// This file pins the decoded emulator (tdpBF16PSDecodedRows,
// tdpBUSDDecodedRows, the *Check tile ops and the decoded drivers) and
// the tile unit to TDPBF16PS's and TDPBUSD's semantics: per instruction
// against refTDPBF16PS and refTDPBUSD, per product against the byte
// oracle (ReferenceMatmulBF16 / ReferenceMatmulINT8 over the operand's
// VNNI image) and PredictCycles, and per fault against each other and
// the expected error text. Bit-identical results (NaN payloads excepted
// — see sameF32Word), identical cycle accounting, identical faults.

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

// tileOpCycles is what one C += A·B tile op costs: three TILELOADDs
// (C, A, B), the TDP and a TILESTORED.
const tileOpCycles = 3*cyclesTileLoad + cyclesTDP + cyclesTileStore

// bf16Lane reads the bfloat16 at byte offset off of a tile image.
func bf16Lane(img []byte, off int) float32 {
	return BF16(binary.LittleEndian.Uint16(img[off:])).Float32()
}

// refTDPBF16PS is TDPBF16PS as the instruction reference states it: from
// the C image (m rows of n float32), the A image (m rows of 2·kPairs
// bf16) and the VNNI B image (kPairs rows of n bf16 pairs) it computes
// every output lane with bf16Dot and returns the new C image.
func refTDPBF16PS(m, n, kPairs int, cImg, aImg, bImg []byte) []byte {
	out := make([]byte, m*n*4)
	aL, bL := make([]float32, 2*kPairs), make([]float32, 2*kPairs)
	for i := 0; i < m; i++ {
		for l := range aL {
			aL[l] = bf16Lane(aImg, i*kPairs*4+2*l)
		}
		for j := 0; j < n; j++ {
			for p := 0; p < kPairs; p++ {
				bL[2*p] = bf16Lane(bImg, p*n*4+4*j)
				bL[2*p+1] = bf16Lane(bImg, p*n*4+4*j+2)
			}
			c := f32FromBits(binary.LittleEndian.Uint32(cImg[4*(i*n+j):]))
			binary.LittleEndian.PutUint32(out[4*(i*n+j):], f32Bits(bf16Dot(c, aL, bL)))
		}
	}
	return out
}

// refTDPBUSD is TDPBUSD's reference: every output lane is its C lane plus
// the integer dot product of A's unsigned bytes and B's signed quads.
func refTDPBUSD(m, n, kQuads int, cImg, aImg, bImg []byte) []byte {
	out := make([]byte, m*n*4)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := int32(binary.LittleEndian.Uint32(cImg[4*(i*n+j):]))
			for q := 0; q < kQuads; q++ {
				for l := 0; l < 4; l++ {
					acc += int32(aImg[i*kQuads*4+4*q+l]) * int32(int8(bImg[q*n*4+4*j+l]))
				}
			}
			binary.LittleEndian.PutUint32(out[4*(i*n+j):], uint32(acc))
		}
	}
	return out
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
				aDec[i*lanes+l] = bf16Lane(aImg, i*kPairs*4+l*2)
			}
		}
		bCols := make([]float32, n*lanes)
		for j := 0; j < n; j++ {
			for p := 0; p < kPairs; p++ {
				off := p*n*4 + j*4
				bCols[j*lanes+2*p] = bf16Lane(bImg, off)
				bCols[j*lanes+2*p+1] = bf16Lane(bImg, off+2)
			}
		}
		// Every lane through bf16Dot: the C image is an arbitrary
		// accumulator, and the drivers take the fast path only from +0.
		must(t, u.tdpBF16PSDecodedRows(tmmC, tmmA, tmmB, MaxRows, false, c, n, aDec, lanes, bCols, lanes))
	} else {
		must(t, u.tdpCheck(false, tmmC, tmmA, tmmB))
		// The chain starts from TILEZERO, so silicon returns +0 + (E + O):
		// E + O itself, except that a -0 sum comes back +0. The C image
		// is added to it in the model's rounding, which is the
		// reference's result unless both C and E + O are -0.
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
}{{"decoded", kernelDecoded}, {"hw", kernelHW}}

// needKernel skips t when kern cannot run on this host.
func needKernel(t *testing.T, kern kernel) {
	t.Helper()
	if kern == kernelHW && !hwAvailable {
		t.Skip("no AMX")
	}
}

// vnniMatrix reads w's VNNI image — the bytes the tile unit loads — back
// into the K×N row-major matrix it encodes: lane (k, c) sits in pair row
// k/2 (BF16) or quad row k/4 (INT8) at column c. A lane past the image's
// end is an ErrBounds fault, and a padding lane that is not zero an
// error, since the tile unit reads padding lanes too.
func vnniMatrix[E float32 | int8](w *operand[E]) ([]E, error) {
	lane := lanesOf[E]().bytes
	per := 4 / lane
	b := make([]E, w.K*w.N)
	for k := 0; k < w.padK; k++ {
		for c := 0; c < w.padN; c++ {
			off := (k/per)*w.padN*4 + 4*c + lane*(k%per)
			if off+lane > len(w.vnni) {
				return nil, fmt.Errorf("amx: lane (%d, %d) at byte %d of a %d-byte VNNI image: %w", k, c, off, len(w.vnni), ErrBounds)
			}
			bits := uint16(w.vnni[off])
			if lane == 2 {
				bits = binary.LittleEndian.Uint16(w.vnni[off:])
			}
			if k >= w.K || c >= w.N {
				if bits != 0 {
					return nil, fmt.Errorf("amx: padding lane (%d, %d) = %#x, want 0", k, c, bits)
				}
				continue
			}
			switch b := any(b).(type) {
			case []float32:
				b[k*w.N+c] = BF16(bits).Float32()
			case []int8:
				b[k*w.N+c] = int8(bits)
			}
		}
	}
	return b, nil
}

// byteOracleBF16 is the byte oracle: the product as read straight from
// w's VNNI image, ReferenceMatmulBF16 over vnniMatrix, with no unit,
// blocking or team in between. The "bytes" leg of each differential
// requires it to give the reference over the source matrix, which pins
// the image on every host: off AMX no kernel reads it.
func byteOracleBF16(t *testing.T, a []float32, m int, w *Prepacked) []float32 {
	t.Helper()
	b, err := vnniMatrix(w)
	must(t, err)
	return ReferenceMatmulBF16(a, b, m, w.K, w.N)
}

// byteOracleINT8 is byteOracleBF16's TDPBUSD twin.
func byteOracleINT8(t *testing.T, a []uint8, m int, w *PrepackedINT8) []int32 {
	t.Helper()
	b, err := vnniMatrix(w)
	must(t, err)
	return ReferenceMatmulINT8(a, b, m, w.K, w.N)
}

// runINT8Tile executes one C(m×n) += A·B tile op from the given operand
// images on kernel kern and returns the C image and the cycles charged:
// the decoded path pre-decodes them the way the packers do (A row-major
// lanes, B column-major lanes); the hardware path runs the *Check ops
// and then one tdpbusdStripe of one block over the images themselves.
func runINT8Tile(t *testing.T, kern kernel, m, n, kQuads int, cImg, aImg, bImg []byte) (cOut []byte, cycles uint64) {
	t.Helper()
	u := NewUnit()
	cfg := int8TileConfig(m, n, kQuads)
	must(t, u.Configure(cfg))
	start := u.Cycles()
	cOut = make([]byte, m*n*4)
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
		// The chain starts from TILEZERO; the C image is the reference's
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
// through the decoded and the hardware kernel and requires
// refTDPBF16PS's C image (modulo NaN payload) and one tile op's cycles.
// The operand bytes include NaN/Inf/denormal bf16 patterns by
// construction (all byte values occur).
func TestDecodedBF16ExhaustiveShapes(t *testing.T) {
	for _, k := range kernels {
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
						gotC, gc := runBF16Tile(t, k.kern, m, n, kPairs, cImg, aImg, bImg)
						if !f32ImagesEqual(refTDPBF16PS(m, n, kPairs, cImg, aImg, bImg), gotC) {
							t.Fatalf("m=%d n=%d kPairs=%d: %s C image diverges from refTDPBF16PS", m, n, kPairs, k.name)
						}
						if gc != tileOpCycles {
							t.Fatalf("m=%d n=%d kPairs=%d: %d cycles (%s), want %d", m, n, kPairs, gc, k.name, tileOpCycles)
						}
					}
				}
			}
		})
	}
}

// TestDecodedINT8ExhaustiveShapes is the TDPBUSD mirror, run for the
// decoded and the hardware kernel alike against refTDPBUSD.
func TestDecodedINT8ExhaustiveShapes(t *testing.T) {
	for _, k := range kernels {
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
						gotC, gc := runINT8Tile(t, k.kern, m, n, kQuads, cImg, aImg, bImg)
						if !reflect.DeepEqual(refTDPBUSD(m, n, kQuads, cImg, aImg, bImg), gotC) {
							t.Fatalf("m=%d n=%d kQuads=%d: %s C image diverges from refTDPBUSD", m, n, kQuads, k.name)
						}
						if gc != tileOpCycles {
							t.Fatalf("m=%d n=%d kQuads=%d: %d cycles (%s), want %d", m, n, kQuads, gc, k.name, tileOpCycles)
						}
					}
				}
			}
		})
	}
}

// FuzzDecodedBF16Equivalence feeds arbitrary operand bit patterns and
// geometry through refTDPBF16PS and, as sub-tests, the decoded and the
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
		cImg, aImg, bImg := fuzzImages(data, m*n*4, m*kPairs*4, kPairs*n*4)
		want := refTDPBF16PS(m, n, kPairs, cImg, aImg, bImg)
		for _, k := range kernels {
			t.Run(k.name, func(t *testing.T) {
				needKernel(t, k.kern)
				gotC, gc := runBF16Tile(t, k.kern, m, n, kPairs, cImg, aImg, bImg)
				if !f32ImagesEqual(want, gotC) {
					t.Fatalf("m=%d n=%d kPairs=%d: %s C image diverges from refTDPBF16PS", m, n, kPairs, k.name)
				}
				if gc != tileOpCycles {
					t.Fatalf("m=%d n=%d kPairs=%d: %d cycles (%s), want %d", m, n, kPairs, gc, k.name, tileOpCycles)
				}
			})
		}
	})
}

// FuzzDecodedINT8Equivalence is the TDPBUSD mirror of the BF16 fuzzer,
// pinning the decoded and the hardware kernel to refTDPBUSD.
func FuzzDecodedINT8Equivalence(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(16), []byte{0x80, 0x7F, 0xFF, 0x01})
	f.Add(uint8(3), uint8(2), uint8(7), []byte{0xFF})
	f.Fuzz(func(t *testing.T, mR, nR, kR uint8, data []byte) {
		m := int(mR%MaxRows) + 1
		n := int(nR%(MaxColBytes/4)) + 1
		kQuads := int(kR%(MaxColBytes/4)) + 1
		cImg, aImg, bImg := fuzzImages(data, m*n*4, m*kQuads*4, kQuads*n*4)
		want := refTDPBUSD(m, n, kQuads, cImg, aImg, bImg)
		for _, k := range kernels {
			t.Run(k.name, func(t *testing.T) {
				needKernel(t, k.kern)
				gotC, gc := runINT8Tile(t, k.kern, m, n, kQuads, cImg, aImg, bImg)
				if !reflect.DeepEqual(want, gotC) {
					t.Fatalf("m=%d n=%d kQuads=%d: %s C image diverges from refTDPBUSD", m, n, kQuads, k.name)
				}
				if gc != tileOpCycles {
					t.Fatalf("m=%d n=%d kQuads=%d: %d cycles (%s), want %d", m, n, kQuads, gc, k.name, tileOpCycles)
				}
			})
		}
	})
}

// fuzzImages cuts the C, A and B images of the given sizes from the
// fuzzer's bytes, each from its own phase of the repeated input.
func fuzzImages(data []byte, cLen, aLen, bLen int) (cImg, aImg, bImg []byte) {
	if len(data) == 0 {
		data = []byte{0}
	}
	grab := func(n, phase int) []byte {
		dst := make([]byte, n)
		for i := range dst {
			dst[i] = data[(i+phase)%len(data)]
		}
		return dst
	}
	return grab(cLen, 0), grab(aLen, 1), grab(bLen, 2)
}

// cyclesMatch reports whether a product's measured cycles are the model's
// plus some number of palette configures: a driver may draw a cold unit
// from the pool (the pool's warm-up depends on team scheduling, and
// sync.Pool is randomized under -race) and pay one Configure per unit.
func cyclesMatch(got, model uint64) bool {
	return got >= model && (got-model)%cyclesConfig == 0
}

// TestDecodedDriverMatchesByteDriverBF16 pins every BF16 kernel's full
// driver (pack → blocking → worker team → scatter) to the byte oracle
// over the same operand bit for bit — including NaN and Inf activations
// and a denormal weight — and its cycles to PredictCycles; the "bytes"
// leg pins the byte oracle itself to ReferenceMatmulBF16. Kernels are
// compared on float32 bits modulo NaN payload (sameF32Word).
func TestDecodedDriverMatchesByteDriverBF16(t *testing.T) {
	type bf16Case struct {
		m, k, n int
		a, b    []float32
		w       *Prepacked
	}
	var cases []bf16Case
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
		w, err := prepack(b, s.k, s.n, true)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, bf16Case{s.m, s.k, s.n, a, b, w})
	}
	t.Run("bytes", func(t *testing.T) {
		for _, c := range cases {
			sameBitsF32(t, byteOracleBF16(t, c.a, c.m, c.w), ReferenceMatmulBF16(c.a, c.b, c.m, c.k, c.n),
				fmt.Sprintf("%dx%dx%d byte oracle vs ReferenceMatmulBF16", c.m, c.k, c.n))
		}
	})
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			for _, c := range cases {
				want := byteOracleBF16(t, c.a, c.m, c.w)
				got := make([]float32, c.m*c.n)
				cycles, err := matmulOn(k.kern, got, c.a, c.m, c.w)
				if err != nil {
					t.Fatalf("%dx%dx%d %s driver: %v", c.m, c.k, c.n, k.name, err)
				}
				for i := range want {
					if !sameF32Word(f32Bits(want[i]), f32Bits(got[i])) {
						t.Fatalf("%dx%dx%d: C[%d] bits %08x (bytes) != %08x (%s)",
							c.m, c.k, c.n, i, f32Bits(want[i]), f32Bits(got[i]), k.name)
					}
				}
				if !cyclesMatch(cycles, c.w.PredictCycles(c.m)) {
					t.Fatalf("%dx%dx%d: %d cycles (%s), PredictCycles %d", c.m, c.k, c.n, cycles, k.name, c.w.PredictCycles(c.m))
				}
			}
		})
	}
}

// TestDecodedDriverMatchesByteDriverINT8 is the INT8 driver-level pin:
// every kernel against the byte oracle and PredictCycles, and the byte
// oracle ("bytes") against ReferenceMatmulINT8.
func TestDecodedDriverMatchesByteDriverINT8(t *testing.T) {
	type int8Case struct {
		m, k, n int
		a       []uint8
		b       []int8
		w       *PrepackedINT8
	}
	var cases []int8Case
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
		w, err := prepack(b, s.k, s.n, true)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, int8Case{s.m, s.k, s.n, a, b, w})
	}
	t.Run("bytes", func(t *testing.T) {
		for _, c := range cases {
			if !reflect.DeepEqual(byteOracleINT8(t, c.a, c.m, c.w), ReferenceMatmulINT8(c.a, c.b, c.m, c.k, c.n)) {
				t.Fatalf("%dx%dx%d: byte oracle diverges from ReferenceMatmulINT8", c.m, c.k, c.n)
			}
		}
	})
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			for _, c := range cases {
				got, cycles, err := matmulINT8On(k.kern, c.a, c.m, c.w)
				if err != nil {
					t.Fatalf("%dx%dx%d %s driver: %v", c.m, c.k, c.n, k.name, err)
				}
				if !reflect.DeepEqual(byteOracleINT8(t, c.a, c.m, c.w), got) {
					t.Fatalf("%dx%dx%d: %s result diverges from the byte oracle", c.m, c.k, c.n, k.name)
				}
				if !cyclesMatch(cycles, c.w.PredictCycles(c.m)) {
					t.Fatalf("%dx%dx%d: %d cycles (%s), PredictCycles %d", c.m, c.k, c.n, cycles, k.name, c.w.PredictCycles(c.m))
				}
			}
		})
	}
}

// truncatedLoadErr is the fault a product over a right-hand image four
// bytes short of two k-blocks × 128 columns raises: the last block's B
// load (16 rows of the 512-byte VNNI row, 64 bytes from column block 7)
// is four bytes short.
var truncatedLoadErr = fmt.Sprintf("amx: load needs %d bytes, have %d: %v",
	(MaxRows-1)*128*4+MaxColBytes, (MaxRows-1)*128*4+MaxColBytes-4, ErrBounds)

// TestDecodedTruncatedOperandFaultIdentity drops the last four bytes of
// each right-hand image — the tail of the final (kb, cb) block's B load —
// and requires truncatedLoadErr, which wraps ErrBounds, from both block
// kernels of both element types, on the inline path and split over a
// team. BF16 k=64 and INT8 k=128 are both two k-blocks of an n=128
// operand, so the images have equal sizes and even the byte counts in
// the message agree. A hardware kernel is given a short VNNI image, the
// bytes it reads; a decoded one a short decoded view.
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
			bfDec, bfHW := bfW(true), bfW(false)
			i8Dec, i8HW := i8W(true), i8W(false)
			bfDec.dec = bfDec.dec[:len(bfDec.dec)-2] // two bf16 lanes = four image bytes
			bfHW.vnni = bfHW.vnni[:len(bfHW.vnni)-4]
			i8Dec.dec = i8Dec.dec[:len(i8Dec.dec)-4]
			i8HW.vnni = i8HW.vnni[:len(i8HW.vnni)-4]

			for _, c := range []struct {
				name string
				kern kernel
				run  func(kern kernel) error
			}{
				{"bf16_decoded", kernelDecoded, func(kern kernel) error {
					_, err := matmulOn(kern, make([]float32, tc.m*n), af, tc.m, bfDec)
					return err
				}},
				{"int8_decoded", kernelDecoded, func(kern kernel) error {
					_, _, err := matmulINT8On(kern, ai, tc.m, i8Dec)
					return err
				}},
				{"bf16_hw", kernelHW, func(kern kernel) error {
					_, err := matmulOn(kern, make([]float32, tc.m*n), af, tc.m, bfHW)
					return err
				}},
				{"int8_hw", kernelHW, func(kern kernel) error {
					_, _, err := matmulINT8On(kern, ai, tc.m, i8HW)
					return err
				}},
			} {
				t.Run(c.name, func(t *testing.T) {
					needKernel(t, c.kern)
					err := c.run(c.kern)
					if !errors.Is(err, ErrBounds) {
						t.Errorf("error %v does not wrap ErrBounds", err)
					}
					if errText(err) != truncatedLoadErr {
						t.Errorf("%q, want %q", errText(err), truncatedLoadErr)
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

// TestDecodedFaultIdentity requires every TDP fault — unconfigured
// tiles, bad indices, incompatible shapes — to come out of the decoded
// instructions and out of tdpCheck, the hardware kernel's check, with the
// expected sentinel and the *identical* error string, and to leave the
// cycle counter untouched.
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
		for _, op := range []struct {
			name    string
			decoded func(u *Unit) error
			busd    bool
		}{
			{"bf16", func(u *Unit) error {
				return u.tdpBF16PSDecodedRows(tc.d, tc.a, tc.b, MaxRows, false, cDec, 4, aDec, 8, bCols, 8)
			}, false},
			{"int8", func(u *Unit) error {
				return u.tdpBUSDDecodedRows(tc.d, tc.a, tc.b, MaxRows, false, cI, 4, aU, 8, bS, 8)
			}, true},
		} {
			ud, uh := tc.mk(), tc.mk()
			cd0, ch0 := ud.Cycles(), uh.Cycles()
			errDec, errHW := op.decoded(ud), uh.tdpCheck(op.busd, tc.d, tc.a, tc.b)
			if !errors.Is(errDec, tc.wantErrIs) {
				t.Errorf("%s %s: decoded error %v, want %v", op.name, tc.name, errDec, tc.wantErrIs)
			}
			if errText(errDec) != errText(errHW) {
				t.Errorf("%s %s: decoded %q != hardware check %q", op.name, tc.name, errText(errDec), errText(errHW))
			}
			if ud.Cycles() != cd0 || uh.Cycles() != ch0 {
				t.Errorf("%s %s: fault advanced the cycle counter", op.name, tc.name)
			}
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

// TestCheckOpsFaultsAndCycles pins the tile ops the kernels issue as
// checks — TileLoadCheck, TileStoreCheck, TileZeroCheck — to the
// instructions' faults, word for word, and their cycles: a faulting op
// charges nothing, a good one its instruction's cost.
func TestCheckOpsFaultsAndCycles(t *testing.T) {
	u := NewUnit()
	cfg := TileConfig{}
	cfg.Tiles[0] = TileShape{Rows: 16, ColBytes: 64}
	if err := u.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	const mem, short = 16 * 64, 100
	for _, tc := range []struct {
		name   string
		op     func(u *Unit) error
		err    string
		cycles uint64
	}{
		{"load ok", func(u *Unit) error { return u.TileLoadCheck(0, mem, 64) }, "<nil>", cyclesTileLoad},
		{"load short", func(u *Unit) error { return u.TileLoadCheck(0, short, 64) },
			"amx: load needs 1024 bytes, have 100: amx: memory access out of bounds", 0},
		{"load narrow stride", func(u *Unit) error { return u.TileLoadCheck(0, mem, 32) },
			"amx: stride 32 < row bytes 64: amx: incompatible tile shapes", 0},
		{"load bad tile", func(u *Unit) error { return u.TileLoadCheck(9, mem, 64) },
			"amx: tmm9: amx: tile index out of range", 0},
		{"load unconfigured", func(u *Unit) error { return u.TileLoadCheck(1, mem, 64) },
			"amx: tmm1: amx: tile not configured", 0},
		{"store ok", func(u *Unit) error { return u.TileStoreCheck(0, mem, 64) }, "<nil>", cyclesTileStore},
		{"store short", func(u *Unit) error { return u.TileStoreCheck(0, short, 64) },
			"amx: store needs 1024 bytes, have 100: amx: memory access out of bounds", 0},
		{"zero ok", func(u *Unit) error { return u.TileZeroCheck(0) }, "<nil>", cyclesTileZero},
		{"zero unconfigured", func(u *Unit) error { return u.TileZeroCheck(3) },
			"amx: tmm3: amx: tile not configured", 0},
	} {
		before := u.Cycles()
		if err := tc.op(u); errText(err) != tc.err {
			t.Errorf("%s: %q, want %q", tc.name, errText(err), tc.err)
		}
		if d := u.Cycles() - before; d != tc.cycles {
			t.Errorf("%s: %d cycles, want %d", tc.name, d, tc.cycles)
		}
	}
}

// TestWriteI32PreservesSNaNBits: an int32 accumulator whose bit pattern
// happens to be a signalling NaN (0x7F800001) must reach memory
// unchanged through every INT8 kernel and refTDPBUSD. A store that
// routed the bits through a float32 round trip could have them quietened
// (bit 22 set → 0x7FC00001) by FP canonicalization.
func TestWriteI32PreservesSNaNBits(t *testing.T) {
	snanBits := []uint32{
		0x7F800001, // minimal-payload signalling NaN
		0x7F800000, // +Inf (payload neighbours matter too)
		0xFF800001, // negative signalling NaN
		0x7FBFFFFF, // maximal signalling payload
	}
	zero := make([]byte, 4)
	for _, bits := range snanBits {
		img := binary.LittleEndian.AppendUint32(nil, bits)
		if got := binary.LittleEndian.Uint32(refTDPBUSD(1, 1, 1, img, zero, zero)); got != bits {
			t.Errorf("refTDPBUSD accumulate of zero over %08x gave %08x", bits, got)
		}
		for _, k := range kernels {
			if k.kern == kernelHW && !hwAvailable {
				continue
			}
			out, _ := runINT8Tile(t, k.kern, 1, 1, 1, img, zero, zero)
			if got := binary.LittleEndian.Uint32(out); got != bits {
				t.Errorf("%s: accumulate of zero over %08x stored %08x", k.name, bits, got)
			}
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
