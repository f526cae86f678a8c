// Package team is the process's one compute worker team: a fixed set of
// persistent helper goroutines that, together with whichever goroutine
// calls Run, execute the indices of a parallel loop. It replaces the
// three per-call fork-join sites the functional stack used to carry (a
// goroutine spawn per dense matmul, a channel hand-off per tiled GEMM, a
// runner.Map per decode round) with the fixed-team, partition-the-
// operator discipline CPU inference runtimes use: workers are started
// once, and a loop costs one atomic publish rather than a spawn.
//
// Three rules keep it safe to call from anywhere on the request path:
//
//   - One loop owns the helpers at a time. A Run issued while another is
//     in flight — from a different goroutine, or nested inside a task —
//     runs inline on its caller, so kernels called from a parallel
//     region never oversubscribe and never deadlock.
//   - Indices are self-scheduled from one atomic cursor and the caller
//     always takes part. The caller waits only for indices a helper has
//     actually claimed, never for a helper that has not woken: on a
//     shared host a parked or descheduled helper costs nothing but its
//     share of the speed-up.
//   - A panic in a task is recovered where it happens, the loop's
//     barrier still completes, and the first panic value is re-raised on
//     the calling goroutine, where a recover can reach it.
//
// Helpers spin briefly on a generation word after each loop (decode
// rounds issue loops tens of microseconds apart, well inside the window)
// and then park on a per-helper semaphore, so an idle process burns no
// CPU.
package team

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// SplitMACs is the smallest product worth handing to Run: ≈128k
// multiply-accumulates, about 40 µs of scalar kernel work on the
// reference host and 256 rows of BF16 tile blocks. Below it a kernel
// must run inline — publishing a loop and meeting the helper at the
// barrier costs a few microseconds, which a 10 µs GEMM cannot win back
// (DESIGN.md, "Threading model", has the measurements). Kernels decide
// from the operand shape alone; there is no switch.
const SplitMACs = 128 << 10

const (
	// spinFor is how long an idle helper polls for the next loop before
	// parking. It covers the gaps inside a decode round; anything longer
	// is idleness and must not cost a core.
	spinFor = 80 * time.Microsecond
	// spinYield is how many polls pass between runtime.Gosched calls, so
	// a spinning helper never keeps a runnable goroutine off its P.
	spinYield = 256
)

// Team is a set of persistent helpers plus the calling goroutine.
type Team struct {
	helpers []*helper
	busy    atomic.Bool          // a Run owns the helpers
	gen     atomic.Uint64        // bumped once per published loop; helpers poll it
	cur     atomic.Pointer[loop] // the loop of generation gen; nil between loops
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// helper is one persistent goroutine's parking state.
type helper struct {
	parked atomic.Bool
	// sema carries at most one wake token: a send happens only after
	// winning parked's true→false transition.
	sema chan struct{}
}

// loop is one Run's shared state. Each Run allocates its own, so a
// helper that wakes late holds a drained loop, never a recycled one.
type loop struct {
	fn       func(i int)
	n        int64
	next     atomic.Int64 // next unclaimed index
	done     atomic.Int64 // indices finished (or skipped after a panic)
	panicked atomic.Pointer[panicValue]
	// waiting is set, after wake is made, by a caller about to park in
	// join; whoever finishes the last index then sends on wake.
	waiting atomic.Bool
	wake    chan struct{}
}

type panicValue struct{ v any }

// std is the process-wide team. It is started at package initialization
// rather than on first use so that every goroutine-leak baseline — taken
// before or after a first kernel call — already counts its (parked)
// helpers.
var std = New(runtime.GOMAXPROCS(0))

// Default returns the process-wide team: GOMAXPROCS−1 helpers plus the
// caller. Production code uses only this team.
func Default() *Team { return std }

// Run executes fn(0) … fn(n−1) on the default team.
func Run(n int, fn func(i int)) { std.Run(n, fn) }

// RunErr is Run with errors on the default team; see Team.RunErr.
func RunErr(ctx context.Context, n int, fn func(i int) error) error {
	return std.RunErr(ctx, n, fn)
}

// New starts a team of the given size, counting the caller: it owns
// size−1 helper goroutines, all parked. Tests use it to pin a size;
// Close stops the helpers.
func New(size int) *Team {
	t := &Team{}
	for i := 1; i < size; i++ {
		h := &helper{sema: make(chan struct{}, 1)}
		t.helpers = append(t.helpers, h)
		t.wg.Add(1)
		go t.serve(h)
	}
	return t
}

// Size is the number of goroutines a loop can run on: helpers plus the
// caller.
func (t *Team) Size() int { return len(t.helpers) + 1 }

// Close stops the helpers and waits for them to exit. It must not
// overlap a Run; a Run after Close runs inline.
func (t *Team) Close() {
	t.stopped.Store(true)
	t.gen.Add(1)
	t.wake(len(t.helpers))
	t.wg.Wait()
	t.helpers = nil
}

// Run executes fn(0) … fn(n−1), each exactly once, and returns when all
// have finished. Indices may run concurrently and in any order, so fn
// must write only state its index owns. When the team is already
// running a loop (including the one fn was called from) the indices run
// in order on the caller. A panic in fn is re-raised here once every
// claimed index has finished; unclaimed indices are skipped.
func (t *Team) Run(n int, fn func(i int)) {
	if n <= 1 || len(t.helpers) == 0 || !t.busy.CompareAndSwap(false, true) {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	l := &loop{fn: fn, n: int64(n)}
	t.cur.Store(l)
	t.gen.Add(1)
	t.wake(n - 1)
	l.work()
	l.join()
	t.cur.Store(nil)
	t.busy.Store(false)
	if p := l.panicked.Load(); p != nil {
		panic(p.v)
	}
}

// RunErr is Run for tasks that can fail, with runner.Map's rule: once an
// index fails or ctx is done, indices not yet started are skipped, and
// the error returned is the failure with the lowest index (deterministic
// for pure tasks, since indices are claimed in order), else ctx.Err().
func (t *Team) RunErr(ctx context.Context, n int, fn func(i int) error) error {
	var st struct { // one captured variable, so one allocation
		failed atomic.Bool
		mu     sync.Mutex
		first  int
		cause  error
	}
	t.Run(n, func(i int) {
		if st.failed.Load() || ctx.Err() != nil {
			return
		}
		if err := fn(i); err != nil {
			st.mu.Lock()
			if st.cause == nil || i < st.first {
				st.first, st.cause = i, err
			}
			st.mu.Unlock()
			st.failed.Store(true)
		}
	})
	if st.cause != nil {
		return fmt.Errorf("team: item %d: %w", st.first, st.cause)
	}
	return ctx.Err()
}

// wake unparks up to n helpers. Spinning helpers need no wake: they see
// the generation move.
func (t *Team) wake(n int) {
	for _, h := range t.helpers {
		if n <= 0 {
			return
		}
		n--
		if h.parked.CompareAndSwap(true, false) {
			h.sema <- struct{}{}
		}
	}
}

// join waits for the indices helpers claimed. They are already running,
// so the wait is normally a fraction of one index and a short spin covers
// it; past spinFor the helper has lost its CPU (a shared or oversubscribed
// host), and a caller that kept spinning would be competing with it, so
// it parks until the last index reports in.
func (l *loop) join() {
	start := time.Now()
	for polls := 1; l.done.Load() != l.n; polls++ {
		if polls%spinYield != 0 {
			continue
		}
		if time.Since(start) > spinFor {
			l.wake = make(chan struct{}, 1) // one send: only one Add reaches n
			l.waiting.Store(true)
			if l.done.Load() != l.n {
				<-l.wake
			}
			return
		}
		runtime.Gosched()
	}
}

// work claims and runs indices until the loop is drained.
func (l *loop) work() {
	for {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		l.call(int(i))
	}
}

// call runs one index. A panic is recorded (first one wins), every
// unclaimed index is retired so the barrier still closes, and the
// goroutine — helper or caller — survives.
func (l *loop) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			l.panicked.CompareAndSwap(nil, &panicValue{r})
			if unclaimed := l.n - l.next.Swap(l.n); unclaimed > 0 {
				l.done.Add(unclaimed)
			}
		}
		if l.done.Add(1) == l.n && l.waiting.Load() {
			l.wake <- struct{}{}
		}
	}()
	l.fn(i)
}

// serve is a helper's life: park, and on each wake run the current loop,
// then spin for the next one before parking again.
func (t *Team) serve(h *helper) {
	defer t.wg.Done()
	// Generations start at 1, so a helper scheduled only after the first
	// loop — or after Close — still notices it.
	seen := uint64(0)
	for spin := false; ; spin = true {
		seen = t.await(h, seen, spin)
		if t.stopped.Load() {
			return
		}
		if l := t.cur.Load(); l != nil {
			l.work()
		}
	}
}

// await returns the first generation after seen, polling for spinFor
// when spin is set and parking otherwise (and afterwards).
func (t *Team) await(h *helper, seen uint64, spin bool) uint64 {
	if spin {
		start := time.Now()
		for polls := 1; ; polls++ {
			if g := t.gen.Load(); g != seen {
				return g
			}
			if polls%spinYield == 0 {
				if time.Since(start) > spinFor {
					break
				}
				runtime.Gosched()
			}
		}
	}
	for {
		h.parked.Store(true)
		// A loop published between the last poll and the flag would never
		// wake us; re-check, and take the flag back unless a waker already
		// has (then its token is on the way and must be consumed).
		if g := t.gen.Load(); g != seen && h.parked.CompareAndSwap(true, false) {
			return g
		}
		<-h.sema
		if g := t.gen.Load(); g != seen {
			return g
		}
	}
}
