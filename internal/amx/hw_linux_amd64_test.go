//go:build !purego

package amx

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestHWTileStateINITAfterReturn reads XINUSE (XGETBV with ECX = 1) on
// the thread that just ran a hardware kernel, after every INT8 and BF16
// product of a mixed-shape set, and requires TILECFG (bit 17) and
// TILEDATA (bit 18) clear: a chain that returned without TILERELEASE
// would leave them set (on the reference guest, ldtilecfg · tilezero
// alone reads 0x60202), and the next goroutine scheduled on the thread
// would inherit live tiles.
func TestHWTileStateINITAfterReturn(t *testing.T) {
	needKernel(t, kernelHW)
	if eax, _, _, _ := cpuid(0xD, 1); eax&(1<<2) == 0 {
		t.Skip("CPU cannot report XINUSE (no XGETBV with ECX=1)")
	}
	const tileCfg, tileData = 1 << 17, 1 << 18
	// One worker: every block runs on this goroutine, locked to its thread.
	useTeam(t, 1)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if in := xinuse(); in&(tileCfg|tileData) != 0 {
		t.Fatalf("tile state in use before any product: XINUSE %#x", in)
	}
	rng := rand.New(rand.NewSource(59))
	for _, s := range []struct{ m, k, n int }{{1, 64, 16}, {5, 130, 33}, {16, 512, 128}, {40, 64, 8}} {
		b := make([]int8, s.k*s.n)
		for i := range b {
			b[i] = int8(rng.Intn(256) - 128)
		}
		a := make([]uint8, s.m*s.k)
		for i := range a {
			a[i] = uint8(rng.Intn(255) + 1)
		}
		w, err := PrepackINT8(b, s.k, s.n)
		if err != nil {
			t.Fatal(err)
		}
		af := randF32(rng, s.m*s.k)
		wf, err := PrepackBF16(randF32(rng, s.k*s.n), s.k, s.n)
		if err != nil {
			t.Fatal(err)
		}
		cf := make([]float32, s.m*s.n)
		for rep := 0; rep < 20; rep++ {
			if _, _, err := matmulINT8On(kernelHW, a, s.m, w); err != nil {
				t.Fatal(err)
			}
			if in := xinuse(); in&(tileCfg|tileData) != 0 {
				t.Fatalf("int8 m=%d k=%d n=%d: tile state in use after return: XINUSE %#x", s.m, s.k, s.n, in)
			}
			if _, err := matmulOn(kernelHW, cf, af, s.m, wf); err != nil {
				t.Fatal(err)
			}
			if in := xinuse(); in&(tileCfg|tileData) != 0 {
				t.Fatalf("bf16 m=%d k=%d n=%d: tile state in use after return: XINUSE %#x", s.m, s.k, s.n, in)
			}
		}
	}
}
