package amx

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// This file is the emulator-vs-silicon harness for TDPBF16PS: seeded
// products run on the host's tile unit and through candidate models of
// its numerics, folded into match rates (SNIPPETS.md's ExperimentConfig →
// TrialResult → rates shape). The adopted model, bf16Dot, must match
// every output, and the decoded kernel and the reference built on it
// must reproduce silicon bit for bit. Without AMX every test
// here skips. `go test -v -run TestSiliconBF16Table ./internal/amx`
// prints the table EXPERIMENTS.md quotes.

// bf16Model is one candidate for one output lane of one instruction: c
// plus the products of the lanes a and b (pair p at 2p and 2p+1).
type bf16Model struct {
	name string
	dot  func(c float32, a, b []float32) float32
}

var bf16Models = []bf16Model{
	// The emulator's order before it adopted silicon's: one chain,
	// acc += a0·b0 + a1·b1 per pair.
	{"pairwise", func(c float32, a, b []float32) float32 {
		for k := 0; k+1 < len(a); k += 2 {
			c += float32(a[k]*b[k]) + float32(a[k+1]*b[k+1])
		}
		return c
	}},
	// Two plain float32 chains, E over the even lanes and O over the odd,
	// then C + (E + O).
	{"two-chain", func(c float32, a, b []float32) float32 {
		var e, o float32
		for k := 0; k+1 < len(a); k += 2 {
			e += float32(a[k] * b[k])
			o += float32(a[k+1] * b[k+1])
		}
		return c + (e + o)
	}},
	// Two chains with DAZ, one rounding per lane update, FTZ and the tile
	// unit's NaN rules: the emulator's numerics.
	{"adopted", bf16Dot},
}

// modelMatmulBF16 is ReferenceMatmulBF16 with dot in place of bf16Dot.
func modelMatmulBF16(dot func(c float32, a, b []float32) float32, a, b []float32, m, k, n int) []float32 {
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
				acc = dot(acc, aL[:], bL[:])
			}
			c[i*n+j] = acc
		}
	}
	return c
}

// ulpDist is the distance between x and y in float32 steps; a NaN
// against anything but its own bits is infinitely far.
func ulpDist(x, y float32) uint64 {
	bx, by := f32Bits(x), f32Bits(y)
	if bx == by {
		return 0
	}
	if x != x || y != y {
		return math.MaxUint64
	}
	ord := func(b uint32) int64 {
		if b>>31 != 0 {
			return -int64(b & 0x7FFFFFFF)
		}
		return int64(b)
	}
	d := ord(bx) - ord(by)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// siliconDist draws an m×k A and a k×n B whose elements have magnitude
// about scale.
type siliconDist struct {
	name string
	gen  func(rng *rand.Rand, scale float64, m, k, n int) (a, b []float32)
}

// drawEach fills both operands with scale·draw(rng).
func drawEach(draw func(rng *rand.Rand) float64) func(rng *rand.Rand, scale float64, m, k, n int) (a, b []float32) {
	return func(rng *rand.Rand, scale float64, m, k, n int) (a, b []float32) {
		a, b = make([]float32, m*k), make([]float32, k*n)
		for _, xs := range [][]float32{a, b} {
			for i := range xs {
				xs[i] = float32(scale * draw(rng))
			}
		}
		return a, b
	}
}

var siliconDists = []siliconDist{
	{"normal", drawEach(func(rng *rand.Rand) float64 { return rng.NormFloat64() })},
	// One sign: no cancellation, the longest runs of same-direction
	// rounding.
	{"positive", drawEach(func(rng *rand.Rand) float64 { return rng.Float64() })},
	// Exponents spread over 2^±12, so partial sums absorb small products.
	{"wide", drawEach(func(rng *rand.Rand) float64 {
		return math.Copysign(math.Exp2(24*rng.Float64()-12), rng.Float64()-0.5)
	})},
	// Every odd lane nearly cancels its even neighbour, so E + O is a
	// catastrophic cancellation.
	{"cancel", func(rng *rand.Rand, scale float64, m, k, n int) (a, b []float32) {
		a, b = drawEach(func(rng *rand.Rand) float64 { return rng.NormFloat64() })(rng, scale, m, k, n)
		for r := 0; r+1 < k; r += 2 {
			for i := 0; i < m; i++ {
				a[i*k+r+1] = a[i*k+r]
			}
			for j := 0; j < n; j++ {
				b[(r+1)*n+j] = -b[r*n+j] * float32(1+rng.Float64()/64)
			}
		}
		return a, b
	}},
}

// siliconConfig is one cell of the table: operands from Dist at
// magnitude Scale, K lanes deep, over Trials seeded 16×K×16 products.
type siliconConfig struct {
	Dist   siliconDist
	Scale  float64
	K      int
	Trials int
}

// siliconTrial is one product's outcome: how many outputs each model got
// bit-exact, and its farthest miss.
type siliconTrial struct {
	Outputs int
	Matched [3]int
	MaxULP  [3]uint64
}

// siliconRates folds trials into a row of the table.
type siliconRates struct {
	Outputs   int
	MatchRate [3]float64
	MaxULP    [3]uint64
}

func foldSilicon(trials []siliconTrial) siliconRates {
	var r siliconRates
	var matched [3]int
	for _, tr := range trials {
		r.Outputs += tr.Outputs
		for i := range matched {
			matched[i] += tr.Matched[i]
			r.MaxULP[i] = max(r.MaxULP[i], tr.MaxULP[i])
		}
	}
	for i, n := range matched {
		r.MatchRate[i] = float64(n) / float64(r.Outputs)
	}
	return r
}

// siliconMags are the cells' operand magnitudes: products from below
// float32's normal range (1e-40) to the edge of overflow (1e38).
var siliconMags = []float64{1e-20, 1e-19, 1e-10, 1, 1e10, 1e18, 1e19}

// siliconKs are the cells' k depths: a tail of one pair, a partial
// instruction, one instruction, and chains of 3 and 16.
var siliconKs = []int{2, 20, 32, 96, 512}

// runSiliconTrial runs one product on the tile unit and under every
// model, and requires the decoded kernel and the reference to equal
// silicon.
func runSiliconTrial(t *testing.T, rng *rand.Rand, cfg siliconConfig) siliconTrial {
	t.Helper()
	const m, n = 16, 16
	a, b := cfg.Dist.gen(rng, cfg.Scale, m, cfg.K, n)
	label := fmt.Sprintf("%s/%g/k%d", cfg.Dist.name, cfg.Scale, cfg.K)
	hw := make([]float32, m*n)
	w, err := prepack(b, cfg.K, n, true)
	must(t, err)
	_, err = matmulOn(kernelHW, hw, a, m, w)
	must(t, err)
	got := make([]float32, m*n)
	_, err = matmulOn(kernelDecoded, got, a, m, w)
	must(t, err)
	sameBitsF32(t, got, hw, label+" decoded vs silicon")
	sameBitsF32(t, ReferenceMatmulBF16(a, b, m, cfg.K, n), hw, label+" ReferenceMatmulBF16 vs silicon")

	tr := siliconTrial{Outputs: m * n}
	for i, model := range bf16Models {
		for j, v := range modelMatmulBF16(model.dot, a, b, m, cfg.K, n) {
			if d := ulpDist(v, hw[j]); d == 0 {
				tr.Matched[i]++
			} else {
				tr.MaxULP[i] = max(tr.MaxULP[i], d)
			}
		}
	}
	return tr
}

// TestSiliconBF16Table runs distribution × magnitude × k-depth cells on
// the tile unit and logs each model's match rate and farthest miss,
// folded by distribution × magnitude and by k depth. The adopted model
// must match every output.
func TestSiliconBF16Table(t *testing.T) {
	needKernel(t, kernelHW)
	rng := rand.New(rand.NewSource(97))
	type cell struct {
		cfg    siliconConfig
		trials []siliconTrial
	}
	var cells []cell
	for _, dist := range siliconDists {
		for _, scale := range siliconMags {
			for _, k := range siliconKs {
				c := cell{cfg: siliconConfig{Dist: dist, Scale: scale, K: k, Trials: 2}}
				for range c.cfg.Trials {
					c.trials = append(c.trials, runSiliconTrial(t, rng, c.cfg))
				}
				cells = append(cells, c)
			}
		}
	}

	var sb strings.Builder
	row := func(label string, r siliconRates) {
		fmt.Fprintf(&sb, "| %s | %d |", label, r.Outputs)
		for i := range bf16Models {
			ulp := "0"
			switch {
			case r.MaxULP[i] == math.MaxUint64:
				ulp = "NaN"
			case r.MaxULP[i] > 1<<20:
				ulp = fmt.Sprintf("%.0e", float64(r.MaxULP[i]))
			case r.MaxULP[i] > 0:
				ulp = fmt.Sprint(r.MaxULP[i])
			}
			fmt.Fprintf(&sb, " %.2f%% / %s |", 100*r.MatchRate[i], ulp)
		}
		sb.WriteString("\n")
	}
	header := func(first string) {
		fmt.Fprintf(&sb, "\n| %s | outputs |", first)
		for _, model := range bf16Models {
			fmt.Fprintf(&sb, " %s: match / max ulp |", model.name)
		}
		sb.WriteString("\n|---|---:|" + strings.Repeat("---:|", len(bf16Models)) + "\n")
	}
	header("distribution × magnitude")
	for _, dist := range siliconDists {
		for _, scale := range siliconMags {
			var trials []siliconTrial
			for _, c := range cells {
				if c.cfg.Dist.name == dist.name && c.cfg.Scale == scale {
					trials = append(trials, c.trials...)
				}
			}
			row(fmt.Sprintf("%s × %g", dist.name, scale), foldSilicon(trials))
		}
	}
	header("k depth")
	for _, k := range siliconKs {
		var trials []siliconTrial
		for _, c := range cells {
			if c.cfg.K == k {
				trials = append(trials, c.trials...)
			}
		}
		row(fmt.Sprint(k), foldSilicon(trials))
	}
	t.Log(sb.String())

	adopted := len(bf16Models) - 1
	for _, c := range cells {
		if r := foldSilicon(c.trials); r.MatchRate[adopted] != 1 {
			t.Errorf("%s × %g × k%d: adopted model matches %.4f%% of silicon's outputs (max %d ulp)",
				c.cfg.Dist.name, c.cfg.Scale, c.cfg.K, 100*r.MatchRate[adopted], r.MaxULP[adopted])
		}
	}
}

// TestSiliconBF16Directed runs the numerics' edge cases — subnormal
// inputs and products, signed zeros, infinities, NaN sign and payload,
// overflow, cancellation in E + O and across instructions, partial tiles
// — on every BF16 kernel and ReferenceMatmulBF16. Silicon, where
// granted, must equal the reference bit for bit; the emulator's kernels
// must equal it everywhere (modulo the host FPU's default NaN, see
// sameF32Word), and so must the byte oracle ("bytes"), exactly: the VNNI
// image silicon loads keeps every special lane. Every directed value is
// exact in bf16.
func TestSiliconBF16Directed(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := math.Float32frombits(0x80000000)
	nan := math.Float32frombits
	sub := math.Float32frombits(0x00080000) // 2^-130, a bf16 subnormal
	type dcase struct {
		name    string
		m, k, n int
		a, b    []float32 // row-major m×k and k×n
	}
	// dot is a 1×k·k×1 case: the first half of ab is A's row, the second
	// B's column.
	dot := func(name string, ab ...float32) dcase {
		k := len(ab) / 2
		return dcase{name, 1, k, 1, ab[:k], ab[k:]}
	}
	cases := []dcase{
		dot("subnormal a reads as zero", sub, 1, 0x1p100, 1),
		dot("subnormal b reads as zero", 0x1p100, 1, sub, 1),
		dot("subnormal product flushes", 0x1p-70, 0, 0x1p-70, 0),
		dot("subnormal chain flushes", 0x1p-63, 0, -0x1.8p-63, 0, 0x1p-63, 0, 0x1p-63, 0),
		dot("subnormal E+O flushes", 0x1.02p-63, -0x1p-63, 0x1p-63, 0x1p-63),
		dot("normal minimum survives", 0x1p-63, 0, 0x1p-63, 0),
		dot("negative zero products", negZero, negZero, 1, 1),
		dot("negative zero times negative", negZero, 1, -1, negZero),
		dot("+inf lane", inf, 1, 2, 3),
		dot("-inf lane", 1, -inf, 2, 3),
		dot("inf times zero", inf, 1, 0, 3),
		dot("inf minus inf in a chain", inf, 0, inf, 0, 1, 0, -1, 0),
		dot("inf minus inf in E+O", inf, inf, 1, -1),
		dot("NaN in a", nan(0x7FC10000), 1, 1, 1),
		dot("negative NaN in b", 1, 1, nan(0xFFE10000), 1),
		dot("NaN in a and b", nan(0x7FC50000), 1, nan(0xFFE30000), 1),
		dot("NaN in E and O", nan(0x7FC50000), nan(0xFFD70000), 1, 1),
		dot("NaN after inf", inf, 0, nan(0x7FC70000), 0, -1, 0, 1, 0),
		dot("NaN and inf times zero", inf, nan(0x7FC70000), 0, 1),
		dot("product overflows", 0x1p70, 1, 0x1p70, 1),
		dot("chain overflows", 0x1p64, 0, 0x1p64, 0, 0x1.fep63, 0, 0x1.fep63, 0),
		dot("E+O overflows", 0x1p64, 0x1p64, 0x1.fep63, 0x1.fep63),
		dot("overflow does not cancel back", 0x1p70, -0x1p70, 0x1p70, 0x1p70),
		dot("cancellation in E+O", 1.5, 1.5, 3, -3),
		dot("absorbed lane, then cancellation in E+O", 1, -1, 0x1p-24, 0, 1, 1, 1, 0),
	}
	// Two instructions whose results cancel: C_old + (E + O) = +0.
	across := func(x, y float32) []float32 {
		v := make([]float32, 2*blockK)
		v[0], v[blockK] = x, y
		return v
	}
	cases = append(cases,
		dcase{"cancellation across instructions", 1, 2 * blockK, 1, across(5, -5), across(1, 1)},
		dcase{"C + (E+O) flushes to -0", 1, 2 * blockK, 1, across(0x1p-63, -0x1.8p-63), across(0x1p-63, 0x1p-63)})
	rng := rand.New(rand.NewSource(7))
	for _, s := range []struct{ m, k, n int }{{1, 2, 1}, {3, 6, 5}, {17, 33, 17}, {2, 34, 31}} {
		a, b := randF32(rng, s.m*s.k), randF32(rng, s.k*s.n)
		cases = append(cases, dcase{fmt.Sprintf("partial tile %dx%dx%d", s.m, s.k, s.n), s.m, s.k, s.n, a, b})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := ReferenceMatmulBF16(tc.a, tc.b, tc.m, tc.k, tc.n)
			w, err := prepack(tc.b, tc.k, tc.n, true)
			must(t, err)
			t.Run("bytes", func(t *testing.T) {
				sameBitsF32(t, byteOracleBF16(t, tc.a, tc.m, w), want, "byte oracle vs ReferenceMatmulBF16")
			})
			for _, kern := range kernels {
				t.Run(kern.name, func(t *testing.T) {
					needKernel(t, kern.kern)
					got := make([]float32, tc.m*tc.n)
					_, err := matmulOn(kern.kern, got, tc.a, tc.m, w)
					must(t, err)
					for i := range want {
						g, r := f32Bits(got[i]), f32Bits(want[i])
						if g != r && (kern.kern == kernelHW || !sameF32Word(g, r)) {
							t.Fatalf("C[%d] = %08x, reference %08x", i, g, r)
						}
					}
				})
			}
		})
	}
}
