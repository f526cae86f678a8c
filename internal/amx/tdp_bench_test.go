package amx

import (
	"fmt"
	"testing"
)

// benchSink keeps the benchmarks' results live.
var benchSink any

// BenchmarkTDPBF16PS measures one full-size TDPBF16PS tile op
// (16×16 C += 16×32 A · 32×16 B) on the decoded emulator: zero the
// accumulator, one TMUL op.
func BenchmarkTDPBF16PS(b *testing.B) {
	const m, n, kPairs = 16, 16, 16
	lanes := 2 * kPairs
	cfg := TileConfig{}
	cfg.Tiles[0] = TileShape{Rows: m, ColBytes: n * 4}
	cfg.Tiles[1] = TileShape{Rows: m, ColBytes: kPairs * 4}
	cfg.Tiles[2] = TileShape{Rows: kPairs, ColBytes: n * 4}
	src := make([]float32, m*lanes)
	for i := range src {
		src[i] = float32(i%13)*0.25 - 1.5
	}

	b.Run("decoded", func(b *testing.B) {
		u := NewUnit()
		if err := u.Configure(cfg); err != nil {
			b.Fatal(err)
		}
		cDec := make([]float32, m*n)
		aDec := make([]float32, m*lanes)
		bCols := make([]float32, n*lanes)
		for i := range aDec {
			aDec[i] = RoundFloat32(src[i])
		}
		for j := 0; j < n; j++ {
			for k := 0; k < lanes; k++ {
				bCols[j*lanes+k] = RoundFloat32(src[k*n+j])
			}
		}
		// The accumulator restarts at +0, so the fast path is exact
		// wherever the operands' spans allow it, as in the drivers.
		fast := bf16Fast(spanOf(aDec), spanOf(bCols))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := u.TileZeroCheck(0); err != nil {
				b.Fatal(err)
			}
			clear(cDec)
			if err := u.tdpBF16PSDecodedRows(0, 1, 2, m, fast, cDec, n, aDec, lanes, bCols, lanes); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = cDec
	})
}

// BenchmarkTDPBUSD is the INT8 mirror of BenchmarkTDPBF16PS: one
// full-size TDPBUSD tile op (16×16 C += 16×64 A · 64×16 B).
func BenchmarkTDPBUSD(b *testing.B) {
	const m, n, kQuads = 16, 16, 16
	lanes := 4 * kQuads
	cfg := TileConfig{}
	cfg.Tiles[0] = TileShape{Rows: m, ColBytes: n * 4}
	cfg.Tiles[1] = TileShape{Rows: m, ColBytes: kQuads * 4}
	cfg.Tiles[2] = TileShape{Rows: kQuads, ColBytes: n * 4}
	aSrc := make([]uint8, m*lanes)
	bSrc := make([]int8, lanes*n)
	for i := range aSrc {
		aSrc[i] = uint8(i * 11)
	}
	for i := range bSrc {
		bSrc[i] = int8(i%253 - 126)
	}

	b.Run("decoded", func(b *testing.B) {
		u := NewUnit()
		if err := u.Configure(cfg); err != nil {
			b.Fatal(err)
		}
		cDec := make([]int32, m*n)
		bCols := make([]int8, n*lanes)
		for j := 0; j < n; j++ {
			for k := 0; k < lanes; k++ {
				bCols[j*lanes+k] = bSrc[k*n+j]
			}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := u.TileZeroCheck(0); err != nil {
				b.Fatal(err)
			}
			clear(cDec)
			if err := u.tdpBUSDDecodedRows(0, 1, 2, m, false, cDec, n, aSrc, lanes, bCols, lanes); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = cDec
	})
}

// BenchmarkHWStripe issues 16 full-size BF16 output blocks of 1, 4 and
// 16 k-steps each to the tile unit, into a pooled unit's accumulator,
// either one block per stripe-routine call (an LDTILECFG and a
// TILERELEASE per block) or all 16 in one call; ns/block is the
// per-block cost EXPERIMENTS.md tabulates.
func BenchmarkHWStripe(b *testing.B) {
	if !hwAvailable {
		b.Skip("no AMX")
	}
	for _, kSteps := range []int{1, 4, 16} {
		const blocks = stripeBlocks
		k, n := kSteps*blockK, blocks*blockN
		a, w := make([]float32, blockM*k), make([]float32, k*n)
		for i := range a {
			a[i] = float32(i%13)*0.25 - 1.5
		}
		for i := range w {
			w[i] = float32(i%7)*0.5 - 1.5
		}
		aImg := make([]byte, blockM*k*2)
		packBF16Into(aImg, a, blockM, k, blockM, k)
		bImg := PackBF16VNNI(w, k, n, k, n)
		aStride, bStride := uintptr(k*2), uintptr(n*4)
		var offs [][2]uintptr
		var chain [blocks]uintptr
		for cb := 0; cb < blocks; cb++ {
			for kb := 0; kb < kSteps; kb++ {
				offs = append(offs, [2]uintptr{uintptr(kb * MaxColBytes), uintptr(kb*MaxRows)*bStride + uintptr(cb*MaxColBytes)})
			}
			chain[cb] = uintptr(kSteps)
		}
		cfg := hwConfig(matmulConfig)
		acc := &(&pooledUnit{}).accF
		b.Run(fmt.Sprintf("k=%d/block", kSteps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s := 0; s < blocks; s++ {
					tdpbf16psStripe(&cfg, &acc[s*tileLanes], &aImg[0], aStride, &bImg[0], bStride, &offs[s*kSteps], &chain[s], 1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
		})
		b.Run(fmt.Sprintf("k=%d/stripe", kSteps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tdpbf16psStripe(&cfg, &acc[0], &aImg[0], aStride, &bImg[0], bStride, &offs[0], &chain[0], blocks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
		})
		benchSink = acc
	}
}
