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

// This file pins the growing operand to the prepacked one: the same lanes
// for the matrix built so far, and products equal to MatmulBF16PackedInto in
// bits and cycles, on every BF16 kernel and along both growth axes.

// growAxes are the two kinds of growing operand: P·V's V gains rows, Q·Kᵀ's
// Kᵀ gains columns.
var growAxes = []struct {
	name   string
	byRows bool
}{{"rows", true}, {"cols", false}}

// growMatrix lays positions out as the row-major B a growing operand of
// that axis holds: position p is row p of B, or column p.
func growMatrix(pos [][]float32, byRows bool) (b []float32, k, n int) {
	width := len(pos[0])
	if byRows {
		for _, p := range pos {
			b = append(b, p...)
		}
		return b, len(pos), width
	}
	b = make([]float32, width*len(pos))
	for p, v := range pos {
		for i, x := range v {
			b[i*len(pos)+p] = x
		}
	}
	return b, width, len(pos)
}

// growLane reads lane (k, c) of w's image: the float32 bits from the
// decoded view, or else the bf16 bits from the VNNI image. Lanes outside
// the image read as zero.
func growLane(w *Prepacked, decoded bool, k, c int) uint32 {
	if decoded {
		if k >= w.decStride || c*w.decStride+k >= len(w.dec) {
			return 0
		}
		return f32Bits(w.dec[c*w.decStride+k])
	}
	off := (k/2)*w.padN*4 + 4*c + 2*(k&1)
	if c >= w.padN || off >= len(w.vnni) {
		return 0
	}
	return uint32(binary.LittleEndian.Uint16(w.vnni[off:]))
}

// sameLanes requires every lane of g's image to equal pre's lane at the
// same (k, c), and so every lane pre does not have to be zero: byte-equal
// VNNI images, lane-equal decoded views, whatever the strides.
func sameLanes(t *testing.T, g *Growing, pre *Prepacked, label string) {
	t.Helper()
	decoded := g.w.dec != nil
	var kRows, nCols int
	if decoded {
		kRows, nCols = g.w.decStride, len(g.w.dec)/g.w.decStride
	} else {
		kRows, nCols = len(g.w.vnni)/(g.w.padN*4)*2, g.w.padN
	}
	for k := 0; k < kRows; k++ {
		for c := 0; c < nCols; c++ {
			if got, want := growLane(&g.w, decoded, k, c), growLane(pre, decoded, k, c); got != want {
				t.Fatalf("%s: lane (%d, %d) = %#x, prepacked %#x", label, k, c, got, want)
			}
		}
	}
}

// growLegs are the legs of the growing differentials: each kernel on the
// image it reads, and "bytes", the VNNI image alone — the tile unit's
// layout — read through the byte oracle, which runs on every host.
var growLegs = []struct {
	name  string
	kern  kernel
	bytes bool
}{{"bytes", kernelHW, true}, {"decoded", kernelDecoded, false}, {"hw", kernelHW, false}}

// TestGrowingMatchesPrepacked appends positions one at a time and, at
// lengths on both sides of every block boundary and at capacity, requires
// the image to hold PrepackBF16's lanes for the same matrix and products
// to equal MatmulBF16PackedInto over it in bits and cycles — per kernel, per
// growth axis, for a GEMV and a two-stripe product. The "bytes" leg
// requires the byte oracle over the growing VNNI image to equal
// ReferenceMatmulBF16 over the matrix.
func TestGrowingMatchesPrepacked(t *testing.T) {
	for _, geo := range []struct{ width, capacity int }{{24, 40}, {32, 64}} {
		for _, axis := range growAxes {
			for _, kern := range growLegs {
				t.Run(fmt.Sprintf("%s/w%dc%d/%s", axis.name, geo.width, geo.capacity, kern.name), func(t *testing.T) {
					if !kern.bytes {
						needKernel(t, kern.kern)
					}
					useTeam(t, 1)
					seedUnits(t, 1, matmulConfig)
					rng := rand.New(rand.NewSource(int64(geo.width + geo.capacity)))
					decoded := kern.kern == kernelDecoded
					g, err := newGrowing(geo.width, geo.capacity, axis.byRows, decoded)
					if err != nil {
						t.Fatal(err)
					}
					var pos [][]float32
					for _, n := range []int{1, 15, 16, 17, 31, 32, 33, geo.capacity} {
						for g.Len() < n {
							v := randF32(rng, geo.width)
							pos = append(pos, v)
							if err := g.Append(v); err != nil {
								t.Fatal(err)
							}
						}
						b, k, nn := growMatrix(pos, axis.byRows)
						pre, err := prepack(b, k, nn, decoded)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("len %d", n)
						sameLanes(t, g, pre, label)
						for _, m := range []int{1, 17} {
							a := randF32(rng, m*k)
							if kern.bytes {
								sameBitsF32(t, byteOracleBF16(t, a, m, &g.w), ReferenceMatmulBF16(a, b, m, k, nn), fmt.Sprintf("%s m=%d byte oracle", label, m))
								continue
							}
							want, got := make([]float32, m*nn), make([]float32, m*nn)
							wantCycles, err := matmulOn(kern.kern, want, a, m, pre)
							if err != nil {
								t.Fatal(err)
							}
							gotCycles, err := matmulOn(kern.kern, got, a, m, &g.w)
							if err != nil {
								t.Fatal(err)
							}
							sameBitsF32(t, got, want, fmt.Sprintf("%s m=%d", label, m))
							if gotCycles != wantCycles {
								t.Fatalf("%s m=%d: %d cycles, prepacked %d", label, m, gotCycles, wantCycles)
							}
						}
					}
				})
			}
		}
	}
}

// TestGrowingEntryPoint runs the production pair — NewGrowingRows/Cols
// and MatmulBF16GrowingInto — against PrepackBF16 + MatmulBF16PackedInto,
// on whichever kernel kernelFor picks on this host.
func TestGrowingEntryPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const width, capacity, length, m = 32, 48, 37, 2
	for _, axis := range growAxes {
		build := NewGrowingCols
		if axis.byRows {
			build = NewGrowingRows
		}
		g, err := build(width, capacity)
		if err != nil {
			t.Fatal(err)
		}
		var pos [][]float32
		for range length {
			pos = append(pos, randF32(rng, width))
			if err := g.Append(pos[len(pos)-1]); err != nil {
				t.Fatal(err)
			}
		}
		b, k, n := growMatrix(pos, axis.byRows)
		pre, err := PrepackBF16(b, k, n)
		if err != nil {
			t.Fatal(err)
		}
		if kernelFor(&g.w) != kernelFor(pre) {
			t.Fatalf("%s: growing operand runs kernel %d, prepacked %d", axis.name, kernelFor(&g.w), kernelFor(pre))
		}
		a := randF32(rng, m*k)
		want, got := make([]float32, m*n), make([]float32, m*n)
		if _, err := MatmulBF16PackedInto(want, a, m, pre); err != nil {
			t.Fatal(err)
		}
		if _, err := MatmulBF16GrowingInto(got, a, m, g); err != nil {
			t.Fatal(err)
		}
		sameBitsF32(t, got, want, axis.name)
	}
}

// TestGrowingTruncateRebuilds truncates inside a block, over positions
// holding ∞ and NaN, re-appends past the next block boundary, and requires
// the operand to equal a fresh build of the same positions — every lane,
// the decoded view's span and the product. A stale lane would show in
// P·V as NaN: A's zero padding meets it up to the next k-block.
func TestGrowingTruncateRebuilds(t *testing.T) {
	const width, capacity = 16, 80
	for _, axis := range growAxes {
		for _, decoded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/decoded=%v", axis.name, decoded), func(t *testing.T) {
				rng := rand.New(rand.NewSource(9))
				g, err := newGrowing(width, capacity, axis.byRows, decoded)
				if err != nil {
					t.Fatal(err)
				}
				var kept [][]float32
				for p := 0; p < 45; p++ {
					v := randF32(rng, width)
					if p >= 20 {
						for i := range v {
							v[i] = float32(math.Inf(1 - 2*(i&1)))
						}
						v[0] = float32(math.NaN())
					} else {
						kept = append(kept, v)
					}
					if err := g.Append(v); err != nil {
						t.Fatal(err)
					}
				}
				g.Truncate(20)
				for len(kept) < 33 {
					v := randF32(rng, width)
					kept = append(kept, v)
					if err := g.Append(v); err != nil {
						t.Fatal(err)
					}
				}
				fresh, err := newGrowing(width, capacity, axis.byRows, decoded)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range kept {
					if err := fresh.Append(v); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(g, fresh) {
					t.Fatal("truncated and re-appended operand differs from a fresh build")
				}
				if !decoded && !hwAvailable {
					return // no kernel here reads the VNNI image; its lanes matched above
				}
				_, k, n := growMatrix(kept, axis.byRows)
				a := randF32(rng, k)
				got, want := make([]float32, n), make([]float32, n)
				if _, err := MatmulBF16GrowingInto(got, a, 1, g); err != nil {
					t.Fatal(err)
				}
				if _, err := MatmulBF16GrowingInto(want, a, 1, fresh); err != nil {
					t.Fatal(err)
				}
				sameBitsF32(t, got, want, "product after truncate")
				for i, x := range got {
					if x != x {
						t.Fatalf("C[%d] is NaN: a dropped lane leaked into the product", i)
					}
				}
			})
		}
	}
}

// TestGrowingShortImageFaultIdentity gives a growing operand at capacity —
// whose image then has a prepacked operand's size — the same four-byte
// (two-lane) shortfall TestDecodedTruncatedOperandFaultIdentity gives a
// prepacked one, and requires the same ErrBounds text from every kernel
// and, on the cut VNNI images, from the byte oracle ("bytes").
func TestGrowingShortImageFaultIdentity(t *testing.T) {
	const k, n, m = 2 * blockK, 128, 1
	af, bf := matrices(m, k, n, 0.5)
	for _, axis := range growAxes {
		for _, kern := range growLegs {
			t.Run(axis.name+"/"+kern.name, func(t *testing.T) {
				if !kern.bytes {
					needKernel(t, kern.kern)
				}
				decoded := kern.kern == kernelDecoded
				pre, err := prepack(bf, k, n, decoded)
				if err != nil {
					t.Fatal(err)
				}
				width, capacity := n, k
				if !axis.byRows {
					width, capacity = k, n
				}
				g, err := newGrowing(width, capacity, axis.byRows, decoded)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < capacity; p++ {
					v := make([]float32, width)
					for i := range v {
						if axis.byRows {
							v[i] = bf[p*n+i]
						} else {
							v[i] = bf[i*n+p]
						}
					}
					if err := g.Append(v); err != nil {
						t.Fatal(err)
					}
				}
				for _, w := range []*Prepacked{pre, &g.w} {
					if decoded {
						w.dec = w.dec[:len(w.dec)-2]
					} else {
						w.vnni = w.vnni[:len(w.vnni)-4]
					}
				}
				var want, got error
				if kern.bytes {
					_, want = vnniMatrix(pre)
					_, got = vnniMatrix(&g.w)
				} else {
					_, want = matmulOn(kern.kern, make([]float32, m*n), af, m, pre)
					_, got = matmulOn(kern.kern, make([]float32, m*n), af, m, &g.w)
				}
				if !errors.Is(got, ErrBounds) || errText(got) != errText(want) {
					t.Fatalf("growing: %q, prepacked: %q", errText(got), errText(want))
				}
			})
		}
	}
}

// TestGrowingValidation covers the error paths and Truncate's range check.
func TestGrowingValidation(t *testing.T) {
	for _, build := range []func(int, int) (*Growing, error){NewGrowingRows, NewGrowingCols} {
		if _, err := build(0, 4); err == nil {
			t.Error("zero width accepted")
		}
		if _, err := build(4, 0); err == nil {
			t.Error("zero capacity accepted")
		}
		g, err := build(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MatmulBF16GrowingInto(make([]float32, 4), make([]float32, 4), 1, g); err == nil {
			t.Error("product over an empty operand accepted")
		}
		if err := g.Append(make([]float32, 3)); err == nil {
			t.Error("short position accepted")
		}
		for i := 0; i < 2; i++ {
			if err := g.Append(make([]float32, 4)); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Append(make([]float32, 4)); err == nil {
			t.Error("append past capacity accepted")
		}
		if _, err := MatmulBF16GrowingInto(make([]float32, 3), make([]float32, 8), 1, g); err == nil {
			t.Error("mismatched operands accepted")
		}
		for _, n := range []int{-1, 3} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Truncate(%d) of a 2-position operand did not panic", n)
					}
				}()
				g.Truncate(n)
			}()
		}
	}
	if _, err := MatmulBF16GrowingInto(nil, nil, 1, nil); err == nil {
		t.Error("nil operand accepted")
	}
}
