package amx

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHWStressMatchesReference is the Go-runtime safety oracle for the
// hardware kernels: ≥10k INT8 and BF16 products of mixed shapes — some
// inline, some split over every helper of a four-worker team — run at
// GOMAXPROCS=4 from two callers while other goroutines loop on runtime.GC
// and on preemption-heavy busy work, so signals land and goroutines
// migrate between products. Every product must equal its reference
// (ReferenceMatmulINT8, ReferenceMatmulBF16) bit for bit: tile data lost
// to a signal or a thread switch would show up as a wrong element.
func TestHWStressMatchesReference(t *testing.T) {
	needKernel(t, kernelHW)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	useTeam(t, 4)

	// A product runs once on the hardware kernel and reports a mismatch.
	type product func() error
	rng := rand.New(rand.NewSource(53))
	var products []product
	split := 0
	for _, s := range []struct{ m, k, n int }{
		{1, 64, 16}, {3, 100, 50}, {8, 128, 384}, {17, 200, 70}, {16, 512, 128},
	} {
		b := make([]int8, s.k*s.n)
		for i := range b {
			b[i] = int8(rng.Intn(256) - 128)
		}
		a := make([]uint8, s.m*s.k)
		for i := range a {
			a[i] = uint8(rng.Intn(256))
		}
		want := ReferenceMatmulINT8(a, b, s.m, s.k, s.n)
		for _, prepack := range []func([]int8, int, int) (*PrepackedINT8, error){PrepackINT8, PrepackINT8Sparse} {
			w, err := prepack(b, s.k, s.n)
			if err != nil {
				t.Fatal(err)
			}
			products = append(products, func() error {
				got, _, err := matmulINT8On(kernelHW, a, s.m, w)
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("int8 m=%d k=%d n=%d differs from ReferenceMatmulINT8", s.m, s.k, s.n)
				}
				return err
			})
		}

		af, bf := randF32(rng, s.m*s.k), randF32(rng, s.k*s.n)
		wantF := ReferenceMatmulBF16(af, bf, s.m, s.k, s.n)
		w, err := PrepackBF16(bf, s.k, s.n)
		if err != nil {
			t.Fatal(err)
		}
		products = append(products, func() error {
			got := make([]float32, s.m*s.n)
			_, err := matmulOn(kernelHW, got, af, s.m, w)
			if err == nil && !reflect.DeepEqual(got, wantF) {
				err = fmt.Errorf("bf16 m=%d k=%d n=%d differs from ReferenceMatmulBF16", s.m, s.k, s.n)
			}
			return err
		})
		if splits(s.m, ceilDiv(s.m, blockM), ceilDiv(s.n, blockN), ceilDiv(s.k, blockKi8)) {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no product splits over the team; the helpers would never run the kernel")
	}

	var stop atomic.Bool
	var noise sync.WaitGroup
	for i := 0; i < 4; i++ {
		noise.Add(1)
		go func(gc bool) {
			defer noise.Done()
			x := uint64(i)
			for !stop.Load() {
				if gc {
					runtime.GC()
					continue
				}
				// A call-free loop: only asynchronous preemption (a signal)
				// can take its thread.
				for j := 0; j < 1<<16; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
		}(i%2 == 0)
	}
	defer func() {
		stop.Store(true)
		noise.Wait()
	}()

	const perCaller = 5000
	var callers sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < perCaller; i++ {
				if err := products[(i+c)%len(products)](); err != nil {
					errs <- fmt.Errorf("product %d: %w", i, err)
					return
				}
			}
		}()
	}
	callers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
