package amx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/lia-sim/lia/internal/tensor"
)

// This file pins the two halves of a product's per-call path: A's BF16
// image (tensor.PackBF16 under packBF16Into) against BF16FromFloat32, and
// the stripe issue (driveStripe → blockKernel.issue → tdp*Stripe) against
// the byte oracle and PredictCycles, across issue-group boundaries, team
// splits, emptied blocks and a fault in the middle of a stripe.

// bf16Specials are the lanes TestPackBF16MatchesBF16FromFloat32 cycles
// through: quiet and signalling NaNs of both signs (one with only low
// payload bits, which the quiet bit keeps a NaN), ±Inf, ±0, subnormals,
// round-to-even ties of both parities, the largest finite float32 (which
// rounds to +Inf) and ordinary values.
var bf16Specials = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc12345, 0x7f800001, 0xff800001, 0x7fa00000, 0xff812345,
	0x7f800000, 0xff800000, 0x00000000, 0x80000000,
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00008000, 0x00018000,
	0x3f808000, 0x3f818000, 0xbf808000, 0xbf818000, 0x3f807fff, 0x3f808001,
	0x7f7fffff, 0xff7fffff, 0x7f7f7fff, 0x3f800000, 0xc0490fdb, 0x3eaaaaab,
}

// sameBF16 reports whether two bf16 lanes agree the way sameFloats
// compares float32s: bit for bit, or both NaN.
func sameBF16(a, b uint16) bool {
	return a == b || (isNaNBits(uint32(a)<<16) && isNaNBits(uint32(b)<<16))
}

// TestPackBF16MatchesBF16FromFloat32 pins tensor.PackBF16 — the AVX2 pass
// and its Go loop — to BF16FromFloat32 lane for lane at every length
// 0…40, each length over every rotation of bf16Specials, and requires the
// bytes past 2·len(src) untouched.
func TestPackBF16MatchesBF16FromFloat32(t *testing.T) {
	for _, leg := range []struct {
		name string
		on   bool
	}{{"avx2", true}, {"go", false}} {
		t.Run(leg.name, func(t *testing.T) {
			if leg.on && !tensorAVX2 {
				t.Skip("no AVX2 on this host")
			}
			saved := tensorAVX2
			tensorAVX2 = leg.on
			defer func() { tensorAVX2 = saved }()
			for n := 0; n <= 40; n++ {
				for off := range bf16Specials {
					src := make([]float32, n)
					for i := range src {
						src[i] = math.Float32frombits(bf16Specials[(off+i)%len(bf16Specials)])
					}
					dst := make([]byte, 2*n+4)
					for i := range dst {
						dst[i] = 0xa5
					}
					tensor.PackBF16(dst, src)
					for i, f := range src {
						got, want := binary.LittleEndian.Uint16(dst[2*i:]), uint16(BF16FromFloat32(f))
						if !sameBF16(got, want) {
							t.Fatalf("n=%d off=%d lane %d (%#08x): %#04x, want %#04x", n, off, i, math.Float32bits(f), got, want)
						}
					}
					for i, b := range dst[2*n:] {
						if b != 0xa5 {
							t.Fatalf("n=%d off=%d: byte %d past the lanes overwritten", n, off, 2*n+i)
						}
					}
				}
			}
		})
	}
}

// stripeN and stripeKBlocks shape TestHWStripeMatchesByteOracle's
// operands: n = 315 is 20 column blocks, more than one issue group of
// stripeBlocks, and 14 k-blocks of either element type make even an
// m = 1 product split on a team.
const (
	stripeN       = 20*blockN - 5
	stripeKBlocks = 14
)

// emptied reports whether the stripe tests' sparse operands zero block
// (kb, cb): all of column blocks 2 and 17 — so TILEZERO then TILESTORED
// is all their tile unit computes — and a scatter of others.
func emptied(kb, cb int) bool { return cb == 2 || cb == 17 || (kb+3*cb)%5 == 0 }

// TestHWStripeMatchesByteOracle runs BF16 and INT8 products with
// m ∈ {1, 3, 16, 17} on the hardware kernel, inline (stripes of 20
// blocks: one full issue group and one of 4) and split over a
// four-worker team, on dense operands and on sparse ones whose bitmap
// empties whole blocks. Results must equal the byte oracle over the
// VNNI image the stripes load, bit for bit — an emptied block is +0 in
// every lane, not −0 — and cycles PredictCycles (every block checked
// exactly once), up to Configure charges.
func TestHWStripeMatchesByteOracle(t *testing.T) {
	needKernel(t, kernelHW)
	rng := rand.New(rand.NewSource(48))
	for _, tc := range []struct {
		name string
		team int
	}{{"inline", 1}, {"split", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			useTeam(t, tc.team)
			for _, m := range []int{1, 3, 16, 17} {
				for _, sparse := range []bool{false, true} {
					what := fmt.Sprintf("m=%d sparse=%v", m, sparse)
					if tc.team > 1 && !splits(m, ceilDiv(m, blockM), ceilDiv(stripeN, blockN), stripeKBlocks) {
						t.Fatalf("%s: does not split", what)
					}

					k := stripeKBlocks * blockK
					bf := blockSparseBF16(rng, k, stripeN, func(kb, cb int) bool { return sparse && emptied(kb, cb) })
					wf, err := prepack(bf, k, stripeN, false)
					if err != nil {
						t.Fatal(err)
					}
					if sparse {
						wf.zero = wf.scanZero()
					}
					af := randF32(rng, m*k)
					want, got := byteOracleBF16(t, af, m, wf), make([]float32, m*stripeN)
					gotCycles, err := matmulOn(kernelHW, got, af, m, wf)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if !sameF32Word(f32Bits(got[i]), f32Bits(want[i])) {
							t.Fatalf("bf16 %s: C[%d] bits %08x (hw) != %08x (bytes)", what, i, f32Bits(got[i]), f32Bits(want[i]))
						}
						if cb := i % stripeN / blockN; sparse && (cb == 2 || cb == 17) && f32Bits(got[i]) != 0 {
							t.Fatalf("bf16 %s: emptied block %d lane C[%d] bits %08x, want +0", what, cb, i, f32Bits(got[i]))
						}
					}
					if !cyclesMatch(gotCycles, wf.PredictCycles(m)) {
						t.Fatalf("bf16 %s: cycles %d, PredictCycles %d", what, gotCycles, wf.PredictCycles(m))
					}

					k = stripeKBlocks * blockKi8
					bi := make([]int8, k*stripeN)
					for r := 0; r < k; r++ {
						for c := 0; c < stripeN; c++ {
							if !sparse || !emptied(r/blockKi8, c/blockN) {
								bi[r*stripeN+c] = int8(rng.Intn(255) - 127)
							}
						}
					}
					wi, err := prepack(bi, k, stripeN, false)
					if err != nil {
						t.Fatal(err)
					}
					if sparse {
						wi.zero = wi.scanZero()
					}
					ai := make([]uint8, m*k)
					for i := range ai {
						ai[i] = uint8(rng.Intn(256))
					}
					wantI := byteOracleINT8(t, ai, m, wi)
					gotI, gotCycles, err := matmulINT8On(kernelHW, ai, m, wi)
					if err != nil {
						t.Fatal(err)
					}
					for i := range wantI {
						if gotI[i] != wantI[i] {
							t.Fatalf("int8 %s: C[%d] = %d (hw), want %d (bytes)", what, i, gotI[i], wantI[i])
						}
					}
					if !cyclesMatch(gotCycles, wi.PredictCycles(m)) {
						t.Fatalf("int8 %s: cycles %d, PredictCycles %d", what, gotCycles, wi.PredictCycles(m))
					}
				}
			}
		})
	}
}

// TestHWStripeFaultKeepsEarlierBlocks truncates the right-hand image so
// the last column block's final B load fails its check, with 7 blocks
// queued ahead of it in its issue group (n = 8 blocks) or one full group
// issued and 3 queued (n = 20). Every kernel must return the fault with
// c holding the product in exactly the columns of the blocks before it
// and the caller's values everywhere else — what issuing and scattering
// each block before checking the next leaves. The "bytes" leg pins
// those columns' values, the byte oracle over the whole image, to
// ReferenceMatmulBF16, and requires the byte oracle over the cut image
// to fault with ErrBounds too.
func TestHWStripeFaultKeepsEarlierBlocks(t *testing.T) {
	useTeam(t, 1)
	const sentinel = float32(-12345.5)
	shapes := []struct{ m, colBlocks int }{{1, 8}, {17, 8}, {1, 20}, {17, 20}}
	t.Run("bytes", func(t *testing.T) {
		for _, s := range shapes {
			n, kd := s.colBlocks*blockN, 2*blockK
			a, b := matrices(s.m, kd, n, 0.5)
			w, err := prepack(b, kd, n, false)
			if err != nil {
				t.Fatal(err)
			}
			sameBitsF32(t, byteOracleBF16(t, a, s.m, w), ReferenceMatmulBF16(a, b, s.m, kd, n),
				fmt.Sprintf("m=%d blocks=%d: byte oracle vs ReferenceMatmulBF16", s.m, s.colBlocks))
			w.vnni = w.vnni[:len(w.vnni)-4]
			if _, err := vnniMatrix(w); !errors.Is(err, ErrBounds) {
				t.Fatalf("m=%d blocks=%d: cut image: error %v does not wrap ErrBounds", s.m, s.colBlocks, err)
			}
		}
	})
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.kern)
			for _, s := range shapes {
				n, kd := s.colBlocks*blockN, 2*blockK
				a, b := matrices(s.m, kd, n, 0.5)
				want := ReferenceMatmulBF16(a, b, s.m, kd, n)
				w, err := prepack(b, kd, n, k.kern == kernelDecoded)
				if err != nil {
					t.Fatal(err)
				}
				w.vnni = w.vnni[:len(w.vnni)-4]
				if w.dec != nil {
					w.dec = w.dec[:len(w.dec)-2]
				}
				got := make([]float32, s.m*n)
				for i := range got {
					got[i] = sentinel
				}
				if _, err := matmulOn(k.kern, got, a, s.m, w); !errors.Is(err, ErrBounds) {
					t.Fatalf("m=%d blocks=%d: error %v does not wrap ErrBounds", s.m, s.colBlocks, err)
				}
				// Only the first stripe runs, and its last block faults.
				for i, v := range got {
					r, c := i/n, i%n
					exp := sentinel
					if r < blockM && c < (s.colBlocks-1)*blockN {
						exp = want[i]
					}
					if f32Bits(v) != f32Bits(exp) {
						t.Fatalf("m=%d blocks=%d: C[%d][%d] = %g, want %g", s.m, s.colBlocks, r, c, v, exp)
					}
				}
			}
		})
	}
}
