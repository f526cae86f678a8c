package amx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBF16RoundTrip(t *testing.T) {
	cases := []float32{0, 1, -1, 0.5, 3.140625, 65504, 1e-3, -2.5e7}
	for _, f := range cases {
		got := BF16FromFloat32(f).Float32()
		rel := math.Abs(float64(got-f)) / math.Max(1e-30, math.Abs(float64(f)))
		if rel > 1.0/128 { // bf16 has 8 significand bits
			t.Errorf("BF16 round trip of %v = %v (rel err %v)", f, got, rel)
		}
	}
}

func TestBF16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := BF16FromFloat32(inf).Float32(); got != inf {
		t.Errorf("+Inf → %v", got)
	}
	nan := float32(math.NaN())
	if got := BF16FromFloat32(nan).Float32(); !math.IsNaN(float64(got)) {
		t.Errorf("NaN → %v, want NaN", got)
	}
	// Exact bf16 values survive unchanged.
	if got := RoundFloat32(1.5); got != 1.5 {
		t.Errorf("1.5 → %v", got)
	}
}

func TestBF16RoundToNearestEven(t *testing.T) {
	// bf16 has 7 mantissa bits, so 1 + 2^-8 is exactly halfway between
	// bf16(1.0) and the next representable value 1 + 2^-7; ties round to
	// even (1.0).
	halfway := float32(1 + 1.0/256)
	if got := RoundFloat32(halfway); got != 1.0 {
		t.Errorf("tie %v → %v, want 1.0", halfway, got)
	}
	// Just above the tie rounds up.
	above := math.Float32frombits(math.Float32bits(halfway) + 1)
	if got := RoundFloat32(above); got != 1+1.0/128 {
		t.Errorf("above-tie %v → %v, want %v", above, got, 1+1.0/128)
	}
}

func TestBF16IdempotentProperty(t *testing.T) {
	f := func(bits uint32) bool {
		v := math.Float32frombits(bits)
		if v != v { // NaN: just require NaN-ness is preserved
			r := RoundFloat32(v)
			return r != r
		}
		once := RoundFloat32(v)
		twice := RoundFloat32(once)
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnitFaultsWhenUnconfigured(t *testing.T) {
	u := NewUnit()
	if err := u.TileZeroCheck(0); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("TILEZERO on INIT unit: %v, want ErrNotConfigured", err)
	}
	if err := u.TileLoadCheck(9, 0, 64); !errors.Is(err, ErrBadTile) {
		t.Errorf("tmm9: %v, want ErrBadTile", err)
	}
}

func TestConfigureRejectsBadShapes(t *testing.T) {
	u := NewUnit()
	cfg := TileConfig{}
	cfg.Tiles[0] = TileShape{Rows: 17, ColBytes: 64}
	if err := u.Configure(cfg); !errors.Is(err, ErrShape) {
		t.Errorf("rows=17: %v, want ErrShape", err)
	}
	cfg.Tiles[0] = TileShape{Rows: 16, ColBytes: 65}
	if err := u.Configure(cfg); !errors.Is(err, ErrShape) {
		t.Errorf("colsb=65: %v, want ErrShape", err)
	}
}

func TestTileLoadBoundsChecked(t *testing.T) {
	u := NewUnit()
	cfg := TileConfig{}
	cfg.Tiles[0] = TileShape{Rows: 16, ColBytes: 64}
	if err := u.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := u.TileLoadCheck(0, 100, 64); !errors.Is(err, ErrBounds) {
		t.Errorf("short load: %v, want ErrBounds", err)
	}
	if err := u.TileLoadCheck(0, 4096, 32); !errors.Is(err, ErrShape) {
		t.Errorf("narrow stride: %v, want ErrShape", err)
	}
}

func TestTDPBF16PSSingleTile(t *testing.T) {
	// C(2×2) = A(2×4) · B(4×2) through one tile op with exact small ints,
	// on every kernel.
	a := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float32{1, 0, 0, 1, 2, 0, 0, 2}
	aImg := make([]byte, 2*4*2)
	packBF16Into(aImg, a, 2, 4, 2, 4)
	bImg := PackBF16VNNI(b, 4, 2, 4, 2)
	want := []float32{7, 10, 19, 22} // [[1,2,3,4]·cols, ...]
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			out, cycles := runBF16Tile(t, k.kern, 2, 2, 2, make([]byte, 2*2*4), aImg, bImg)
			for i, w := range want {
				if got := math.Float32frombits(binary.LittleEndian.Uint32(out[4*i:])); got != w {
					t.Errorf("C[%d] = %v, want %v", i, got, w)
				}
			}
			if cycles == 0 {
				t.Error("cycle counter did not advance")
			}
		})
	}
}

func TestTDPBUSD(t *testing.T) {
	// C(1×1) = row [1,2,3,4] (u8) · col [1,-1,1,1] (s8), on every kernel.
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			out, _ := runINT8Tile(t, k.kern, 1, 1, 1, make([]byte, 4), []byte{1, 2, 3, 4}, []byte{1, 0xFF, 1, 1}) // 0xFF = -1 signed
			// 1·1 + 2·(-1) + 3·1 + 4·1 = 6
			if got := int32(binary.LittleEndian.Uint32(out)); got != 6 {
				t.Errorf("TDPBUSD = %d, want 6", got)
			}
		})
	}
}

func TestMatmulExactSmallIntegers(t *testing.T) {
	// Integer-valued matrices below 256 are exact in bf16, so the tile
	// pipeline must be exactly right.
	const m, k, n = 5, 7, 3
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(i % 9)
	}
	for i := range b {
		b[i] = float32((i*3 + 1) % 7)
	}
	got, cycles, err := matmulBF16(a, b, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceMatmulBF16(a, b, m, k, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if cycles == 0 {
		t.Error("no cycles recorded")
	}
}

func TestMatmulMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{1, 1, 1}, {16, 32, 16}, {17, 33, 18}, {40, 64, 48}, {3, 100, 5}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = rng.Float32()*2 - 1
		}
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
		got, _, err := matmulBF16(a, b, m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		sameBitsF32(t, got, ReferenceMatmulBF16(a, b, m, k, n), fmt.Sprintf("%dx%dx%d", m, k, n))
	}
}

func TestMatmulRejectsBadSizes(t *testing.T) {
	if _, _, err := matmulBF16(make([]float32, 3), make([]float32, 4), 2, 2, 2); err == nil {
		t.Error("expected size mismatch error")
	}
	if _, _, err := matmulBF16(nil, nil, 0, 2, 2); err == nil {
		t.Error("expected dimension error")
	}
}

// Property: matmul with an identity right operand returns the (bf16
// rounded) left operand.
func TestMatmulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, k = 20, 24
	a := make([]float32, m*k)
	for i := range a {
		a[i] = rng.Float32()*10 - 5
	}
	eye := make([]float32, k*k)
	for i := 0; i < k; i++ {
		eye[i*k+i] = 1
	}
	got, _, err := matmulBF16(a, eye, m, k, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if got[i] != RoundFloat32(a[i]) {
			t.Fatalf("identity matmul[%d] = %v, want %v", i, got[i], RoundFloat32(a[i]))
		}
	}
}

// TestRoundSliceMatchesBF16FromFloat32 pins RoundSlice — the vector
// body where the host has AVX2, the Go loop on tail lanes and without
// it — to the scalar round trip BF16FromFloat32(f).Float32() bit for
// bit, NaN payloads included: every one of the 2¹⁶ high halves under
// the low halves that decide rounding (zero, one, just below, at and
// just above the tie, all ones), over the whole slice and over every
// length 1…70 from every offset mod 8.
func TestRoundSliceMatchesBF16FromFloat32(t *testing.T) {
	lows := []uint32{0, 1, 0x7fff, 0x8000, 0x8001, 0xffff}
	in := make([]float32, 0, len(lows)<<16)
	for hi := uint32(0); hi < 1<<16; hi++ {
		for _, lo := range lows {
			in = append(in, math.Float32frombits(hi<<16|lo))
		}
	}
	want := make([]float32, len(in))
	for i, v := range in {
		want[i] = BF16FromFloat32(v).Float32()
	}
	for _, avx2 := range []bool{true, false} {
		t.Run(fmt.Sprintf("avx2=%v", avx2), func(t *testing.T) {
			if avx2 && !tensorAVX2 {
				t.Skip("no AVX2 on this host")
			}
			saved := tensorAVX2
			tensorAVX2 = avx2
			defer func() { tensorAVX2 = saved }()
			check := func(what string, got, want []float32) {
				t.Helper()
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s: element %d (%#08x) rounds to %#08x, want %#08x",
							what, i, math.Float32bits(in[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
			got := RoundSlice(append([]float32(nil), in...))
			check("whole slice", got, want)
			for n := 1; n <= 70; n++ {
				for off := 0; off < 8; off++ {
					lo := off*len(in)/8 + n
					got := RoundSlice(append([]float32(nil), in[lo:lo+n]...))
					check(fmt.Sprintf("n=%d off=%d", n, off), got, want[lo:lo+n])
				}
			}
		})
	}
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
