package team

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sizes are the team sizes every property is checked at: no helpers,
// one, and more helpers than this host may have CPUs.
var sizes = []int{1, 2, 4}

func newTeam(t *testing.T, size int) *Team {
	t.Helper()
	tm := New(size)
	t.Cleanup(tm.Close)
	return tm
}

// TestRunVisitsEveryIndexOnce: for loops shorter than, equal to and far
// longer than the team, every index runs exactly once.
func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, size := range sizes {
		tm := newTeam(t, size)
		for _, n := range []int{0, 1, 2, size, size + 1, 1000} {
			visits := make([]atomic.Int32, n)
			tm.Run(n, func(i int) { visits[i].Add(1) })
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("size %d n %d: index %d visited %d times", size, n, i, got)
				}
			}
		}
	}
}

// TestNestedRunRunsInline: a Run issued from inside a task completes (no
// deadlock on the helpers the outer loop owns) and runs on the goroutine
// that issued it.
func TestNestedRunRunsInline(t *testing.T) {
	for _, size := range sizes {
		tm := newTeam(t, size)
		var total atomic.Int64
		tm.Run(8, func(i int) {
			order := make([]int, 0, 16)
			tm.Run(16, func(j int) {
				order = append(order, j) // unsynchronized: safe only if inline
				total.Add(1)
			})
			for j, v := range order {
				if v != j {
					t.Errorf("size %d: nested loop ran out of order: %v", size, order)
					return
				}
			}
		})
		if total.Load() != 8*16 {
			t.Fatalf("size %d: nested loops ran %d tasks, want %d", size, total.Load(), 8*16)
		}
	}
}

// TestConcurrentRuns: 64 goroutines share one team; whoever finds it
// busy runs inline, and every loop still produces its own result.
func TestConcurrentRuns(t *testing.T) {
	for _, size := range sizes {
		tm := newTeam(t, size)
		var wg sync.WaitGroup
		for g := 0; g < 64; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					out := make([]int, 100)
					tm.Run(len(out), func(i int) { out[i] = g*1000 + i })
					for i, v := range out {
						if v != g*1000+i {
							t.Errorf("size %d goroutine %d: out[%d] = %d", size, g, i, v)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestNoGoroutinePerRun: the helpers are the only goroutines the team
// ever owns, however many loops run.
func TestNoGoroutinePerRun(t *testing.T) {
	tm := newTeam(t, 4)
	var sum atomic.Int64
	tm.Run(8, func(i int) { sum.Add(1) }) // warm: every helper has run once
	before := settledGoroutines()
	for rep := 0; rep < 10000; rep++ {
		tm.Run(8, func(i int) { sum.Add(1) })
	}
	if after := settledGoroutines(); after != before {
		t.Fatalf("goroutines %d before, %d after 10000 runs", before, after)
	}
	if sum.Load() != 8*10001 {
		t.Fatalf("ran %d tasks, want %d", sum.Load(), 8*10001)
	}
}

// settledGoroutines reads the goroutine count once it has stopped
// moving: helpers of teams earlier tests closed are still exiting.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestLateHelperDoesNotDelayCaller: a helper that never wakes — here one
// whose goroutine has not been started, so its wake token just sits in
// the semaphore — must cost the caller nothing: the caller drains the
// loop itself and returns. When the helper finally runs it finds the
// stale token and no work, and then serves later loops normally.
func TestLateHelperDoesNotDelayCaller(t *testing.T) {
	h := &helper{sema: make(chan struct{}, 1)}
	h.parked.Store(true)
	tm := &Team{helpers: []*helper{h}}

	done := make(chan struct{})
	var ran atomic.Int64
	go func() {
		defer close(done)
		for rep := 0; rep < 3; rep++ { // later loops must not block on the full semaphore
			tm.Run(1000, func(i int) { ran.Add(1) })
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run waited for a helper that never woke")
	}
	if ran.Load() != 3000 {
		t.Fatalf("ran %d tasks, want 3000", ran.Load())
	}

	tm.wg.Add(1)
	go tm.serve(h) // the helper wakes, late
	t.Cleanup(tm.Close)
	// Once it has consumed the stale token and re-parked, it joins loops
	// like any other helper; give it loops until one of its indices shows.
	callerID := goid()
	deadline := time.Now().Add(30 * time.Second)
	for helped := false; !helped; {
		if time.Now().After(deadline) {
			t.Fatal("late helper never joined a later loop")
		}
		tm.Run(64, func(i int) {
			if goid() != callerID {
				helped = true // only the helper writes; the caller reads after the barrier
			}
			time.Sleep(10 * time.Microsecond)
		})
	}
}

// goid identifies the calling goroutine, for tests that must tell the
// caller's indices from a helper's.
func goid() string {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	var id string
	fmt.Sscanf(s, "goroutine %s ", &id)
	return id
}

// TestPanicUnwindsThroughCaller: a panic inside a task — whichever
// goroutine ran it — is recoverable around Run, and the team still works
// afterwards. At the parent commit the same panic inside a
// tensor.parallelRows or runner.Map goroutine killed the process from a
// goroutine no recover could reach.
func TestPanicUnwindsThroughCaller(t *testing.T) {
	for _, size := range sizes {
		tm := newTeam(t, size)
		for _, victim := range []int{0, 7, 63} {
			got := func() (r any) {
				defer func() { r = recover() }()
				tm.Run(64, func(i int) {
					if i == victim {
						panic(fmt.Sprintf("boom %d", i))
					}
					time.Sleep(time.Microsecond) // let helpers claim indices, victim included
				})
				return nil
			}()
			if want := fmt.Sprintf("boom %d", victim); got != want {
				t.Fatalf("size %d: recovered %v, want %q", size, got, want)
			}
			// Usable afterwards, helpers included.
			visits := make([]atomic.Int32, 256)
			tm.Run(len(visits), func(i int) { visits[i].Add(1) })
			for i := range visits {
				if visits[i].Load() != 1 {
					t.Fatalf("size %d: after a panic index %d visited %d times", size, i, visits[i].Load())
				}
			}
		}
	}
}

// TestRunErrLowestIndexWins: the reported failure is the lowest failing
// index that ran, indices after a failure are skipped, and a done
// context surfaces when no task failed.
func TestRunErrLowestIndexWins(t *testing.T) {
	errOdd := errors.New("odd")
	for _, size := range sizes {
		tm := newTeam(t, size)
		var ran atomic.Int64
		err := tm.RunErr(context.Background(), 1000, func(i int) error {
			ran.Add(1)
			if i >= 3 && i%2 == 1 {
				return fmt.Errorf("index %d: %w", i, errOdd)
			}
			return nil
		})
		if !errors.Is(err, errOdd) || err.Error() != "team: item 3: index 3: odd" {
			t.Fatalf("size %d: error %v, want item 3", size, err)
		}
		if ran.Load() == 1000 {
			t.Fatalf("size %d: every index ran after the failure", size)
		}
		if err := tm.RunErr(context.Background(), 10, func(int) error { return nil }); err != nil {
			t.Fatalf("size %d: clean loop returned %v", size, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ran.Store(0)
		err = tm.RunErr(ctx, 1000, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("size %d: canceled loop returned %v", size, err)
		}
		if ran.Load() == 1000 {
			t.Fatalf("size %d: every index ran after cancellation", size)
		}
	}
}

// TestHelpersParkWhenIdle: after spinFor with no loop, every helper is
// parked — an idle team burns no CPU — and a parked team still runs the
// next loop.
func TestHelpersParkWhenIdle(t *testing.T) {
	tm := newTeam(t, 3)
	var sum atomic.Int64
	tm.Run(64, func(i int) { sum.Add(1) })
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, h := range tm.helpers {
			if h.parked.Load() {
				parked++
			}
		}
		if parked == len(tm.helpers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked after 10 s idle", parked, len(tm.helpers))
		}
		time.Sleep(time.Millisecond)
	}
	tm.Run(64, func(i int) { sum.Add(1) })
	if sum.Load() != 128 {
		t.Fatalf("ran %d tasks, want 128", sum.Load())
	}
}

// TestDefaultTeam: the package-level entry points run on the
// process-wide team.
func TestDefaultTeam(t *testing.T) {
	if Default().Size() < 1 {
		t.Fatalf("default team size %d", Default().Size())
	}
	var sum atomic.Int64
	Run(100, func(i int) { sum.Add(int64(i)) })
	if err := RunErr(context.Background(), 100, func(i int) error { sum.Add(int64(i)); return nil }); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 2*4950 {
		t.Fatalf("sum %d, want %d", sum.Load(), 2*4950)
	}
}
