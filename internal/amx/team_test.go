package amx

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"github.com/lia-sim/lia/internal/team"
)

// This file pins the drivers' partition over the worker team: results
// and cycle totals are the same whoever computes which chunk (team sizes
// 1, 2 and 4), steady-state cycles equal PredictCycles, and a worker that
// claims nothing touches no tile unit.

// useTeam runs the rest of the test on a team of the given size.
func useTeam(t *testing.T, size int) {
	t.Helper()
	old := workers
	workers = team.New(size)
	t.Cleanup(func() {
		workers.Close()
		workers = old
	})
}

// seedUnits replaces the free list with n units whose palette is cfg
// already (installed before the test's calls, so not billed to them) and
// restores the old list afterwards. With the palette in steady state a
// call's cycles are exactly its tile work.
func seedUnits(t *testing.T, n int, cfg TileConfig) {
	t.Helper()
	units.mu.Lock()
	old := units.free
	units.free = nil
	units.mu.Unlock()
	for i := 0; i < n; i++ {
		pu := &pooledUnit{u: NewUnit()}
		if err := pu.ensure(cfg); err != nil {
			t.Fatal(err)
		}
		putUnit(pu)
	}
	t.Cleanup(func() {
		units.mu.Lock()
		units.free = old
		units.mu.Unlock()
	})
}

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func sameBitsF32(t *testing.T, got, want []float32, label string) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got[i], want[i])
		}
	}
}

var (
	partitionMs = []int{1, 3, 8, 16, 17, 64}
	// (K, N): one that never splits, the bench model's QKV shape, and one
	// that is a multiple of neither 16, 32 nor 64 yet splits even at m=1.
	partitionKNs = [][2]int{{70, 50}, {128, 384}, {500, 390}}
)

// TestPartitionInvarianceBF16: dense and 50%-block-sparse operands give
// ReferenceMatmulBF16's result bit for bit and exactly PredictCycles(m)
// cycles at every team size, on every BF16 kernel. The "bytes" leg
// requires the byte oracle over the operand's VNNI image to give the same
// result; it involves no team, so it reads the same at every size.
func TestPartitionInvarianceBF16(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kn := range partitionKNs {
		k, n := kn[0], kn[1]
		bd := randF32(rng, k*n)
		bs := blockSparseBF16(rng, k, n, func(kb, cb int) bool { return (kb+cb)%2 == 0 })
		dense, err := prepack(bd, k, n, true)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := prepack(bs, k, n, true)
		if err != nil {
			t.Fatal(err)
		}
		sparse.zero = sparse.scanZero()
		for _, m := range partitionMs {
			a := randF32(rng, m*k)
			for name, op := range map[string]struct {
				w *Prepacked
				b []float32
			}{"dense": {dense, bd}, "sparse": {sparse, bs}} {
				w, want := op.w, ReferenceMatmulBF16(a, op.b, m, k, n)
				fromBytes := byteOracleBF16(t, a, m, w)
				for _, size := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/m%d/k%dn%d/team%d", name, m, k, n, size), func(t *testing.T) {
						useTeam(t, size)
						seedUnits(t, size, matmulConfig)
						t.Run("bytes", func(t *testing.T) {
							sameBitsF32(t, fromBytes, want, "byte oracle vs ReferenceMatmulBF16")
						})
						for _, kern := range kernels {
							t.Run(kern.name, func(t *testing.T) {
								needKernel(t, kern.kern)
								got := make([]float32, m*n)
								for rep := 0; rep < 3; rep++ {
									cycles, err := matmulOn(kern.kern, got, a, m, w)
									if err != nil {
										t.Fatal(err)
									}
									if cycles != w.PredictCycles(m) {
										t.Fatalf("m=%d k=%d n=%d size %d: %d cycles, model %d", m, k, n, size, cycles, w.PredictCycles(m))
									}
									sameBitsF32(t, got, want, "vs ReferenceMatmulBF16")
								}
							})
						}
					})
				}
			}
		}
	}
}

// TestPartitionInvarianceINT8 is the TDPBUSD twin, for every INT8
// kernel: each must give ReferenceMatmulINT8's result and PredictCycles
// at every team size, and so must the byte oracle ("bytes").
func TestPartitionInvarianceINT8(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, kn := range partitionKNs {
		k, n := kn[0], kn[1]
		b := make([]int8, k*n)
		bs := make([]int8, k*n)
		for i := range b {
			b[i] = int8(rng.Intn(255) - 127)
			if ((i/n)/blockKi8+(i%n)/blockN)%2 == 1 {
				bs[i] = b[i]
			}
		}
		dense, err := prepack(b, k, n, true)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := prepack(bs, k, n, true)
		if err != nil {
			t.Fatal(err)
		}
		sparse.zero = sparse.scanZero()
		if nz, total := sparse.BlockStats(); nz == total {
			t.Fatalf("k=%d n=%d: sparse operand has no zero block", k, n)
		}
		for _, m := range partitionMs {
			a := make([]uint8, m*k)
			for i := range a {
				a[i] = uint8(rng.Intn(256))
			}
			for name, op := range map[string]struct {
				w *PrepackedINT8
				b []int8
			}{"dense": {dense, b}, "sparse": {sparse, bs}} {
				w, want := op.w, ReferenceMatmulINT8(a, op.b, m, k, n)
				fromBytes := byteOracleINT8(t, a, m, w)
				for _, size := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/m%d/k%dn%d/team%d", name, m, k, n, size), func(t *testing.T) {
						useTeam(t, size)
						seedUnits(t, size, matmulConfig)
						t.Run("bytes", func(t *testing.T) {
							if !reflect.DeepEqual(fromBytes, want) {
								t.Fatalf("m=%d k=%d n=%d: byte oracle diverges from ReferenceMatmulINT8", m, k, n)
							}
						})
						for _, kern := range kernels {
							t.Run(kern.name, func(t *testing.T) {
								needKernel(t, kern.kern)
								for rep := 0; rep < 3; rep++ {
									got, cycles, err := matmulINT8On(kern.kern, a, m, w)
									if err != nil {
										t.Fatal(err)
									}
									if cycles != w.PredictCycles(m) {
										t.Fatalf("m=%d k=%d n=%d size %d: %d cycles, model %d", m, k, n, size, cycles, w.PredictCycles(m))
									}
									for i := range want {
										if got[i] != want[i] {
											t.Fatalf("m=%d k=%d n=%d size %d: element %d = %d, want %d", m, k, n, size, i, got[i], want[i])
										}
									}
								}
							})
						}
					})
				}
			}
		}
	}
}

// TestPartitionInvarianceLUT: the INT4 LUT kernel shares four-row blocks
// and the rows they leave out to the team (m ≥ 2, enough work); results
// and modeled cycles do not depend on it. Half the activations are zero,
// of either sign, as behind a ReLU: a block adds the ±0 terms a lone row
// skips, so every row must equal that row computed alone.
func TestPartitionInvarianceLUT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kn := range partitionKNs {
		k, n := kn[0], kn[1]
		const group = 32
		groups := ceilDiv(k, group)
		codes := make([]uint8, k*n)
		for i := range codes {
			codes[i] = uint8(rng.Intn(16))
		}
		scales := make([]float32, groups*n)
		for i := range scales {
			scales[i] = float32(rng.Float64()*0.1 + 0.01)
		}
		w, err := PrepackINT4LUT(codes, k, n, group, scales)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range partitionMs {
			x := randF32(rng, m*k)
			for i := range x {
				if p := rng.Float64(); p < 0.25 {
					x[i] = 0
				} else if p < 0.5 {
					x[i] = float32(math.Copysign(0, -1))
				}
			}
			alone := make([]float32, m*n)
			for i := 0; i < m; i++ {
				if _, err := w.GEMV4LUTInto(alone[i*n:(i+1)*n], x[i*k:(i+1)*k], 1); err != nil {
					t.Fatal(err)
				}
			}
			for _, size := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("m%d/k%dn%d/team%d", m, k, n, size), func(t *testing.T) {
					useTeam(t, size)
					got := make([]float32, m*n)
					cycles, err := w.GEMV4LUTInto(got, x, m)
					if err != nil {
						t.Fatal(err)
					}
					if cycles != w.PredictCycles(m) {
						t.Fatalf("%d cycles, model %d", cycles, w.PredictCycles(m))
					}
					sameBitsF32(t, got, alone, "vs rows alone")
				})
			}
		}
	}
}

// TestMixedPaletteSteadyState interleaves BF16 and INT8 products that
// split into fewer chunks than the team has workers. Both pipelines
// install the one tile palette, matmulConfig, so once every unit has it
// no call —
// whichever workers it lands on — pays a configure: each call's cycles
// are exactly PredictCycles(m).
func TestMixedPaletteSteadyState(t *testing.T) {
	useTeam(t, 4)
	seedUnits(t, 4, matmulConfig)
	rng := rand.New(rand.NewSource(43))
	const m, k, n = 8, 512, 128 // 8 column blocks → 2 chunks for 4 workers
	wf, err := PrepackBF16(randF32(rng, k*n), k, n)
	if err != nil {
		t.Fatal(err)
	}
	b8 := make([]int8, k*n)
	for i := range b8 {
		b8[i] = int8(rng.Intn(255) - 127)
	}
	w8, err := PrepackINT8(b8, k, n)
	if err != nil {
		t.Fatal(err)
	}
	af := randF32(rng, m*k)
	a8 := make([]uint8, m*k)
	dst := make([]float32, m*n)
	for call := 0; call < 200; call++ {
		cf, err := MatmulBF16PackedInto(dst, af, m, wf)
		if err != nil {
			t.Fatal(err)
		}
		_, c8, err := MatmulINT8Packed(a8, m, w8)
		if err != nil {
			t.Fatal(err)
		}
		if cf != wf.PredictCycles(m) || c8 != w8.PredictCycles(m) {
			t.Fatalf("call %d: bf16 %d (model %d), int8 %d (model %d)", call, cf, wf.PredictCycles(m), c8, w8.PredictCycles(m))
		}
	}
}

// TestIdleWorkerLeavesPaletteAlone is the regression test for the pool's
// configure-before-claim: tileTask.work called w.ensure(t.cfg) first, so
// a worker that woke to an already-drained product still switched its
// palette and billed the configure to a call it did no work for. Here a
// product of two chunks runs on a team of four whose units all hold the
// other geometry: at most two units — those that held a chunk — may
// switch, and the call is billed exactly their configures.
func TestIdleWorkerLeavesPaletteAlone(t *testing.T) {
	cfgA := matmulConfig
	cfgB := matmulConfig
	cfgB.Tiles[tmmB].Rows = blockK / 4 // a genuinely different geometry
	useTeam(t, 4)
	const chunks = 2
	count := func(cfg TileConfig) (n int) {
		units.mu.Lock()
		defer units.mu.Unlock()
		for _, pu := range units.free {
			if pu.cfg == cfg {
				n++
			}
		}
		return n
	}
	for round := 0; round < 100; round++ {
		cfg, other := cfgA, cfgB
		if round%2 == 1 {
			cfg, other = cfgB, cfgA
		}
		seedUnits(t, 4, other)
		cycles, err := runTiled(cfg, 1, chunks*chunkColBlocks, func(pu *pooledUnit, rb, cbLo, cbHi int) error {
			for cb := cbLo; cb < cbHi; cb++ {
				if err := pu.u.TileZeroCheck(tmmC); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		switched := count(cfg)
		if switched < 1 || switched > chunks {
			t.Fatalf("round %d: %d units switched palette for a %d-chunk product", round, switched, chunks)
		}
		if want := uint64(chunks*chunkColBlocks*cyclesTileZero + switched*cyclesConfig); cycles != want {
			t.Fatalf("round %d: %d cycles, want %d (%d configures)", round, cycles, want, switched)
		}
	}
}

// TestUnitAccumulatorsCacheAligned pins the layout the tile unit's
// stores rely on: a fresh unit's stripe accumulators, accF and accI,
// start on 64-byte boundaries, so every 64-byte row TILESTORED writes
// into them fills one cache line. A unit is a large object (its
// accumulators alone are 32 KB), which the allocator page-aligns, and
// the accumulators come first. On the 2-vCPU AMX guest a one-k-step
// block cost ≈33 ns when they straddled lines and ≈25 ns when they did
// not.
func TestUnitAccumulatorsCacheAligned(t *testing.T) {
	units.mu.Lock()
	old := units.free
	units.free = nil
	units.mu.Unlock()
	t.Cleanup(func() {
		units.mu.Lock()
		units.free = old
		units.mu.Unlock()
	})
	for i := 0; i < 8; i++ {
		pu := getUnit()
		if a := uintptr(unsafe.Pointer(&pu.accF[0])); a%64 != 0 {
			t.Errorf("unit %d: accF at %#x, not 64-byte aligned", i, a)
		}
		if a := uintptr(unsafe.Pointer(&pu.accI[0])); a%64 != 0 {
			t.Errorf("unit %d: accI at %#x, not 64-byte aligned", i, a)
		}
	}
}
