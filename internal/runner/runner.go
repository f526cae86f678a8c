// Package runner is the repo's deterministic parallel execution layer:
// a bounded worker pool that fans independent jobs out across
// GOMAXPROCS-many workers while keeping results in input order, and a
// concurrency-safe single-flight memoization cache (cache.go) that the
// engine and optimizer front with.
//
// Determinism contract: Map returns results positionally (result[i]
// belongs to items[i]) no matter how the scheduler interleaves workers,
// and error propagation picks the lowest-index failure, so a parallel
// run is byte-for-byte equivalent to the sequential one. Callers must
// only supply pure jobs — anything keyed off shared mutable state or a
// shared RNG breaks the contract, not the pool.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerOverride holds the -j override; 0 means "use GOMAXPROCS".
var workerOverride atomic.Int64

// SetWorkers overrides the default worker count Map uses (the
// lia-bench -j flag). n <= 0 restores the GOMAXPROCS default;
// n == 1 restores fully sequential execution.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// Workers returns the worker count Map currently uses.
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn over every item on up to Workers() goroutines and returns
// the results in input order. The first error (by input index, which is
// deterministic for pure jobs) cancels the remaining unstarted items and
// is returned; results computed before the failure are discarded with it.
// A canceled ctx stops new items from starting and surfaces ctx.Err()
// unless an item error takes precedence at a lower index.
func Map[T, R any](ctx context.Context, items []T, fn func(context.Context, T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	workers := Workers()
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		// Sequential fast path: no goroutines, exact -j 1 semantics.
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, items[i])
			if err != nil {
				return nil, fmt.Errorf("runner: item %d: %w", i, err)
			}
			results[i] = r
		}
		return results, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next atomic.Int64
		errs = make([]error, len(items)) // job errors only, by input index
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if ctx.Err() != nil {
					continue // drained after a failure or cancellation
				}
				r, err := fn(ctx, items[i])
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	// Job errors take precedence, lowest input index first: for pure jobs
	// that choice is independent of scheduling.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: item %d: %w", i, err)
		}
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
