package tensor

import (
	"math"
	"math/rand"
	"testing"

	"github.com/lia-sim/lia/internal/team"
)

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

// TestMatMulPartitionInvariance: MatMul computes each output row from its
// own input row, so the row ranges the team hands out cannot change a
// bit — below the split threshold, above it, and with more workers than
// rows.
func TestMatMulPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range []struct{ m, k, n int }{{1, 64, 192}, {3, 300, 200}, {48, 64, 192}, {97, 130, 70}} {
		a, b := New(sh.m, sh.k), New(sh.k, sh.n)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
		}
		a.Data[rng.Intn(len(a.Data))] = 0 // the zero-skip must survive partitioning too
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		var want Matrix
		for _, size := range []int{1, 2, 4} {
			useTeam(t, size)
			got := MatMul(a, b)
			if size == 1 {
				want = got
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("MatMul %dx%dx%d team %d: element %d = %g, want %g", sh.m, sh.k, sh.n, size, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestParallelRowsPanicReachesCaller: at the parent commit a panic in a
// parallelRows goroutine (a bad slice index in a kernel, say) killed the
// process from a goroutine no recover could reach; on the team it
// unwinds through the caller, and the next product still computes.
func TestParallelRowsPanicReachesCaller(t *testing.T) {
	useTeam(t, 2)
	got := func() (r any) {
		defer func() { r = recover() }()
		parallelRows(64, team.SplitMACs, func(lo, hi int) {
			if lo > 0 {
				panic("bad row range")
			}
		})
		return nil
	}()
	if got != "bad row range" {
		t.Fatalf("recovered %v, want the kernel's panic", got)
	}
	a, b := New(64, 64), New(64, 64)
	for i := range a.Data {
		a.Data[i], b.Data[i] = 1, 2
	}
	if c := MatMul(a, b); c.At(63, 63) != 128 {
		t.Fatalf("MatMul after a recovered panic: C[63][63] = %g, want 128", c.At(63, 63))
	}
}
