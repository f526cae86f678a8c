package amx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // for go:linkname
)

// tensorAVX2 is internal/tensor's AVX2 probe. The "go" sub-tests turn it
// off so tensor.MatMulInt8Into runs its Go loop on every lane.
//
//go:linkname tensorAVX2 github.com/lia-sim/lia/internal/tensor.useAVX2
var tensorAVX2 bool

// seedINT4 is the INT4 operand in the table-walk kernel's layout —
// nibble codes and bf16-rounded group scales, both column-major — and
// lutRow is that kernel verbatim: the oracle the vector kernel must match
// bit for bit.
type seedINT4 struct {
	K, N, Group int
	groups      int
	codes       []uint8
	scales      []float32
}

func seedPrepackINT4(codes []uint8, k, n, group int, scales []float32) *seedINT4 {
	groups := ceilDiv(k, group)
	w := &seedINT4{K: k, N: n, Group: group, groups: groups,
		codes: make([]uint8, k*n), scales: make([]float32, groups*n)}
	for j := 0; j < n; j++ {
		for r := 0; r < k; r++ {
			w.codes[j*k+r] = codes[r*n+j]
		}
		for g := 0; g < groups; g++ {
			w.scales[j*groups+g] = RoundFloat32(scales[g*n+j])
		}
	}
	return w
}

// lutRow computes one activation row's outputs with table scratch of
// its own, so rows can run on different workers.
func (w *seedINT4) lutRow(out, row []float32) {
	lutBuf := f32Scratch.get(w.K * 16)
	defer f32Scratch.put(lutBuf)
	lut := *lutBuf
	// Table build: 16 partial products per activation element.
	for k, v := range row {
		xr := RoundFloat32(v)
		t := lut[k*16 : k*16+16]
		for c := range t {
			t[c] = xr * float32(c-8)
		}
	}
	for j := 0; j < w.N; j++ {
		col := w.codes[j*w.K : (j+1)*w.K]
		scol := w.scales[j*w.groups : (j+1)*w.groups]
		var acc float32
		for g := 0; g < w.groups; g++ {
			lo := g * w.Group
			hi := lo + w.Group
			if hi > w.K {
				hi = w.K
			}
			var gs float32
			for k := lo; k < hi; k++ {
				gs += lut[k*16+int(col[k])]
			}
			acc += scol[g] * gs
		}
		out[j] = acc
	}
}

// int4Specials are the non-finite and overflowing values planted in the
// activations and the scales.
var int4Specials = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 3e38, -3e38}

// TestINT4KernelMatchesSeedLUT: the vector kernel adds the table walk's
// terms in the table walk's order (DESIGN.md §12), so every non-NaN output
// is bit-equal to the seed's lutRow and every NaN is a NaN — over k 1…300
// and n 1…70 (below one vector and off the 8-lane step), groups of 1, 3,
// 7, 32 and 128 and groups of at least k, activations 30% zero (±0 and
// subnormals that round to zero) and ±∞, NaN and 3e38 in the activations
// and the scales; then m 4…9, so rows run as four-row blocks, with half
// the activations zero as behind a ReLU. The avx2 sub-test runs tensor's
// assembly, the go sub-test its Go loop.
func TestINT4KernelMatchesSeedLUT(t *testing.T) {
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"go", false}} {
		t.Run(path.name, func(t *testing.T) {
			if path.avx2 && !tensorAVX2 {
				t.Skip("no AVX2 on this host")
			}
			saved := tensorAVX2
			tensorAVX2 = path.avx2
			defer func() { tensorAVX2 = saved }()
			rng := rand.New(rand.NewSource(31))
			for trial := 0; trial < 1500; trial++ {
				k, n, m := 1+rng.Intn(300), 1+rng.Intn(70), 1+rng.Intn(3)
				group := []int{1, 3, 7, 32, 128, k, k + 1 + rng.Intn(64)}[trial%7]
				checkINT4AgainstSeed(t, rng, fmt.Sprintf("trial %d: %dx%dx%d g=%d", trial, m, k, n, group), m, k, n, group, 0)
			}
			for trial := 0; trial < 300; trial++ {
				k, n, m := 1+rng.Intn(300), 1+rng.Intn(70), 4+rng.Intn(6)
				group := []int{1, 3, 7, 32, 128, k, k + 1 + rng.Intn(64)}[trial%7]
				checkINT4AgainstSeed(t, rng, fmt.Sprintf("block trial %d: %dx%dx%d g=%d", trial, m, k, n, group), m, k, n, group, 0.5)
			}
		})
	}
}

// checkINT4AgainstSeed draws an operand and m activation rows, a share
// relu of them then set to +0, and compares GEMV4LUTInto with the seed.
func checkINT4AgainstSeed(t *testing.T, rng *rand.Rand, what string, m, k, n, group int, relu float64) {
	t.Helper()
	groups := ceilDiv(k, group)
	codes := make([]uint8, k*n)
	for i := range codes {
		codes[i] = uint8(rng.Intn(16))
	}
	scales := make([]float32, groups*n)
	for i := range scales {
		scales[i] = float32(rng.Float64()*0.1 + 1e-3)
		if rng.Float64() < 0.03 {
			scales[i] = int4Specials[rng.Intn(len(int4Specials))]
		}
	}
	x := make([]float32, m*k)
	for i := range x {
		switch p := rng.Float64(); {
		case p < 0.1:
			x[i] = 0
		case p < 0.2:
			x[i] = float32(math.Copysign(0, -1))
		case p < 0.3: // a subnormal below half bf16's least step: it rounds to ±0
			x[i] = math.Float32frombits(uint32(1+rng.Intn(0x7fff)) | uint32(rng.Intn(2))<<31)
		case p < 0.33:
			x[i] = int4Specials[rng.Intn(len(int4Specials))]
		default:
			x[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		}
		if relu > 0 && rng.Float64() < relu {
			x[i] = 0
		}
	}
	w, err := PrepackINT4LUT(codes, k, n, group, scales)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, m*n)
	for i := range got {
		got[i] = float32(math.NaN()) // every output must be written
	}
	if _, err := w.GEMV4LUTInto(got, x, m); err != nil {
		t.Fatal(err)
	}
	seed := seedPrepackINT4(codes, k, n, group, scales)
	want := make([]float32, m*n)
	for i := 0; i < m; i++ {
		seed.lutRow(want[i*n:(i+1)*n], x[i*k:(i+1)*k])
	}
	for i := range want {
		g, wv := got[i], want[i]
		if gNaN, wNaN := math.IsNaN(float64(g)), math.IsNaN(float64(wv)); gNaN || wNaN {
			if gNaN != wNaN {
				t.Fatalf("%s: output %d = %g, seed %g", what, i, g, wv)
			}
			continue
		}
		if math.Float32bits(g) != math.Float32bits(wv) {
			t.Fatalf("%s: output %d = %g (%#08x), seed %g (%#08x)", what, i, g, math.Float32bits(g), wv, math.Float32bits(wv))
		}
	}
}
