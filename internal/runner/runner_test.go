package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapPreservesInputOrder: results land positionally regardless of
// which worker finishes first (later items complete sooner here).
func TestMapPreservesInputOrder(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	got, err := Map(context.Background(), items, func(_ context.Context, i int) (string, error) {
		time.Sleep(time.Duration(64-i) * 100 * time.Microsecond) // reverse finish order
		return fmt.Sprintf("r%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if want := fmt.Sprintf("r%d", i); r != want {
			t.Fatalf("result[%d] = %q, want %q", i, r, want)
		}
	}
}

// TestMapSequentialMatchesParallel: the -j 1 fast path and the
// concurrent path produce identical results.
func TestMapSequentialMatchesParallel(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9, 2, 6}
	run := func(workers int) []int {
		SetWorkers(workers)
		defer SetWorkers(0)
		got, err := Map(context.Background(), items, func(_ context.Context, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	seq, par := run(1), run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("workers=1 vs workers=8 diverge at %d: %d vs %d", i, seq[i], par[i])
		}
	}
}

// TestMapPropagatesFirstError: a failing item surfaces with its input
// index, and no result slice is returned.
func TestMapPropagatesFirstError(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	boom := errors.New("boom")
	got, err := Map(context.Background(), []int{0, 1, 2, 3, 4, 5}, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if got != nil {
		t.Error("failed Map must not return results")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestMapCancellation: a canceled context stops the run and surfaces
// context.Canceled.
func TestMapCancellation(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	items := make([]int, 100)
	_, err := Map(ctx, items, func(ctx context.Context, _ int) (int, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n == 100 {
		t.Error("cancellation did not stop the run")
	}
}

// TestMapEmpty: an empty input is a no-op.
func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), nil, func(_ context.Context, _ int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestCacheSingleFlight: an expensive cell requested by many concurrent
// workers is computed exactly once, and everyone sees the same value.
func TestCacheSingleFlight(t *testing.T) {
	var (
		cache Cache[string, int]
		calls atomic.Int64
		wg    sync.WaitGroup
	)
	const waiters = 32
	results := make([]int, waiters)
	start := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := cache.Do("cell", func() (int, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("expensive cell computed %d times, want exactly 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d saw %d", i, v)
		}
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
}

// TestCacheDistinctKeys: different keys compute independently.
func TestCacheDistinctKeys(t *testing.T) {
	var cache Cache[int, int]
	for i := 0; i < 10; i++ {
		v, err := cache.Do(i, func() (int, error) { return i * 2, nil })
		if err != nil || v != i*2 {
			t.Fatalf("key %d: got %d, %v", i, v, err)
		}
	}
	if cache.Len() != 10 {
		t.Errorf("Len = %d, want 10", cache.Len())
	}
	cache.Reset()
	if cache.Len() != 0 {
		t.Error("Reset did not clear the cache")
	}
}

// TestCacheCachesErrors: a failed computation is remembered, not retried.
func TestCacheCachesErrors(t *testing.T) {
	var (
		cache Cache[string, int]
		calls int
	)
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		if _, err := cache.Do("bad", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing fn ran %d times, want 1", calls)
	}
}

// TestCachePanicDoesNotDeadlockWaiters: a panicking computation releases
// concurrent waiters with an error instead of blocking them forever.
func TestCachePanicDoesNotDeadlockWaiters(t *testing.T) {
	var cache Cache[string, int]
	done := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		cache.Do("k", func() (int, error) {
			go func() {
				_, err := cache.Do("k", func() (int, error) { return 0, nil })
				done <- err
			}()
			time.Sleep(2 * time.Millisecond)
			panic("kaboom")
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("waiter after a panic should see an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked behind a panicking computation")
	}
}
