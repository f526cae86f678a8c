package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/llm"
)

// testExecutor builds a small real model; every gateway test drives the
// actual functional engine, not a stub.
func testExecutor(t *testing.T) *llm.Executor {
	t.Helper()
	m, err := llm.NewRandom(llm.TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	return llm.NewExecutor(m, core.PartialCPU)
}

// reference computes the expected token stream for a prompt — the
// gateway's contract is bit-identical output to a solo Generate.
func reference(t *testing.T, e *llm.Executor, prompt []int, n int) []int {
	t.Helper()
	want, err := llm.NewExecutor(e.Model, e.Policy).Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func shutdown(t *testing.T, g *Gateway) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// checkNoGoroutineLeak polls until the goroutine count returns to (near)
// its baseline — the gateway must not strand its batcher, kill watcher,
// or any per-request goroutine after Shutdown.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finalizer/timer goroutines along
		n := runtime.NumGoroutine()
		if n <= baseline+2 { // slack for runtime/test goroutines in flux
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayServesConcurrentClients is the live integration test: many
// concurrent clients with mixed prompts, server-side deadlines, and
// client-side cancels, over a KV pool tight enough to preempt. Every
// served response must be bit-identical to a solo Generate; every
// submission must be accounted for exactly once; nothing may leak.
func TestGatewayServesConcurrentClients(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := testExecutor(t)
	g, err := New(e, Config{
		MaxBatch:      4,
		QueueDepth:    64,
		KVBudget:      e.Model.Cfg.KVBytes(1, 64), // 16 blocks of 4 tokens: preemption pressure
		KVBlockTokens: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 24
	type outcome struct {
		kind string // served | canceled | failed
		err  error
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			prompt := make([]int, 2+rng.Intn(8))
			for j := range prompt {
				prompt[j] = rng.Intn(e.Model.Cfg.VocabSize)
			}
			n := 2 + rng.Intn(10)
			ctx := context.Background()
			switch i % 6 {
			case 4: // client-side cancel, sometimes before any progress
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				go func() {
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					cancel()
				}()
			case 5: // aggressive deadline
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(4))*time.Millisecond)
				defer cancel()
			}
			res, err := g.Submit(ctx, prompt, n)
			switch {
			case err == nil:
				want := reference(t, e, prompt, n)
				if len(res.Tokens) != len(want) {
					outcomes[i] = outcome{kind: "failed", err: fmt.Errorf("%d tokens, want %d", len(res.Tokens), len(want))}
					return
				}
				for j := range want {
					if res.Tokens[j] != want[j] {
						outcomes[i] = outcome{kind: "failed", err: fmt.Errorf("token %d diverges", j)}
						return
					}
				}
				if res.Total < res.TTFT || res.TTFT < res.QueueWait {
					outcomes[i] = outcome{kind: "failed", err: fmt.Errorf("timings out of order: %v %v %v", res.QueueWait, res.TTFT, res.Total)}
					return
				}
				outcomes[i] = outcome{kind: "served"}
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				outcomes[i] = outcome{kind: "canceled"}
			default:
				outcomes[i] = outcome{kind: "failed", err: err}
			}
		}(i)
	}
	wg.Wait()
	shutdown(t, g)

	var served, canceled uint64
	for i, o := range outcomes {
		switch o.kind {
		case "served":
			served++
		case "canceled":
			canceled++
		default:
			t.Errorf("client %d: %v", i, o.err)
		}
	}
	if served == 0 {
		t.Error("no client was served")
	}
	snap := g.Snapshot()
	if snap.Completed != served {
		t.Errorf("gateway served %d, clients saw %d successes", snap.Completed, served)
	}
	if snap.Canceled != canceled {
		t.Errorf("gateway canceled %d, clients saw %d cancels", snap.Canceled, canceled)
	}
	if snap.Received != served+canceled || snap.Shed != 0 {
		t.Errorf("accounting: received=%d shed=%d, served=%d canceled=%d",
			snap.Received, snap.Shed, served, canceled)
	}
	if snap.Tokens == 0 || snap.TTFTMean <= 0 {
		t.Errorf("observability: tokens=%d ttft=%v", snap.Tokens, snap.TTFTMean)
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestGatewaySheds: a queue of depth 1 in front of a single-slot batch
// must shed bursts with ErrOverloaded, and the shed count plus the
// served count must cover every submission.
func TestGatewaySheds(t *testing.T) {
	e := testExecutor(t)
	g, err := New(e, Config{MaxBatch: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	const burst = 16
	var wg sync.WaitGroup
	var served, shed uint64
	var mu sync.Mutex
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := g.Submit(context.Background(), []int{1, 2, 3}, 24)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	shutdown(t, g)
	if served+shed != burst {
		t.Errorf("%d served + %d shed != %d submitted", served, shed, burst)
	}
	if served == 0 {
		t.Error("burst entirely shed")
	}
	snap := g.Snapshot()
	if snap.Completed != served || snap.Shed != shed {
		t.Errorf("snapshot served=%d shed=%d, clients saw %d and %d", snap.Completed, snap.Shed, served, shed)
	}
}

// TestGatewayValidation: impossible work is refused before it occupies a
// queue slot.
func TestGatewayValidation(t *testing.T) {
	e := testExecutor(t)
	g, err := New(e, Config{MaxNewTokens: 8, KVBudget: e.Model.Cfg.KVBytes(1, 16), KVBlockTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, g)
	ctx := context.Background()
	cases := []struct {
		name   string
		prompt []int
		n      int
	}{
		{"zero-tokens", []int{1}, 0},
		{"empty-prompt", nil, 1},
		{"over-cap", []int{1}, 9},
		{"beyond-context", make([]int, e.Model.Cfg.MaxSeqLen), 8},
		{"out-of-vocab", []int{e.Model.Cfg.VocabSize}, 1},
		{"never-fits-pool", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, 1},
	}
	for _, c := range cases {
		if _, err := g.Submit(ctx, c.prompt, c.n); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if snap := g.Snapshot(); snap.Rejected != uint64(len(cases)) || snap.Received != 0 {
		t.Errorf("rejected=%d received=%d, want %d and 0", snap.Rejected, snap.Received, len(cases))
	}
}

// TestGatewayShutdown: Shutdown drains in-flight work, then refuses new
// submissions; a second Shutdown is a no-op; an already-expired drain
// deadline aborts outstanding work with ErrShuttingDown.
func TestGatewayShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := testExecutor(t)
	g, err := New(e, Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.Submit(context.Background(), []int{3, 1, 4}, 32)
		done <- err
	}()
	// Wait for the request to be in flight, then drain.
	for g.Snapshot().Received == 0 {
		time.Sleep(time.Millisecond)
	}
	shutdown(t, g)
	if err := <-done; err != nil {
		t.Errorf("in-flight request must be drained, got %v", err)
	}
	if _, err := g.Submit(context.Background(), []int{1}, 1); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown Submit: %v, want ErrShuttingDown", err)
	}
	shutdown(t, g) // idempotent
	checkNoGoroutineLeak(t, baseline)
}

// TestGatewayHTTP drives the full HTTP surface over an in-memory
// listener: generation (with exact tokens), validation errors, the
// health and metrics endpoints, and the draining behaviour.
func TestGatewayHTTP(t *testing.T) {
	e := testExecutor(t)
	g, err := New(e, Config{MaxBatch: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// Concurrent HTTP clients, exact tokens.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prompt := []int{i + 1, i + 2, i + 3}
			const n = 6
			status, body := post(fmt.Sprintf(`{"prompt":[%d,%d,%d],"max_new_tokens":%d}`, prompt[0], prompt[1], prompt[2], n))
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			var res GenerateResponse
			if err := json.Unmarshal(body, &res); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			want := reference(t, e, prompt, n)
			for j := range want {
				if res.Tokens[j] != want[j] {
					t.Errorf("client %d: token %d diverges: %v vs %v", i, j, res.Tokens, want)
					return
				}
			}
			if res.TotalMs < res.TTFTMs {
				t.Errorf("client %d: total %vms < ttft %vms", i, res.TotalMs, res.TTFTMs)
			}
		}(i)
	}
	wg.Wait()

	// Error mapping.
	if status, _ := post(`{"prompt":[],"max_new_tokens":1}`); status != http.StatusBadRequest {
		t.Errorf("empty prompt: status %d, want 400", status)
	}
	if status, _ := post(`not json`); status != http.StatusBadRequest {
		t.Errorf("bad body: status %d, want 400", status)
	}
	if status, _ := post(`{"prompt":[1,2],"max_new_tokens":4,"timeout_ms":0,"unknown_field":1}`); status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", status)
	}
	// A timeout_ms past what a time.Duration holds is malformed, not a
	// deadline wrapped into the past (1e13: an instant 504) or into an
	// arbitrary future (2e13: about 49 years).
	for _, ms := range []string{"10000000000000", "20000000000000"} {
		if status, _ := post(`{"prompt":[1,2],"max_new_tokens":4,"timeout_ms":` + ms + `}`); status != http.StatusBadRequest {
			t.Errorf("timeout_ms %s: status %d, want 400", ms, status)
		}
	}

	// Health and metrics.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"lia_gateway_requests_completed_total 8",
		"lia_gateway_ttft_seconds_count 8",
		"lia_gateway_queue_wait_seconds_bucket",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// Draining flips health.
	shutdown(t, g)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("draining healthz carries no Retry-After header")
	}
	resp, err = http.Post(srv.URL+"/v1/generate", "application/json",
		bytes.NewReader([]byte(`{"prompt":[1,2],"max_new_tokens":2}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining generate: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("draining generate carries no Retry-After header")
	}
}

// TestGatewayServerSideTimeout: a request whose server-side budget
// expires while queued behind a busy single-slot batch maps to 504.
func TestGatewayServerSideTimeout(t *testing.T) {
	e := testExecutor(t)
	g, err := New(e, Config{MaxBatch: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	// Warm the client connection first: once the batcher is busy decoding,
	// a fresh dial can lose the only core for tens of milliseconds, and the
	// timed request below must reach the queue while the blockers still
	// hold it.
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// Fill the single-slot batch and its FIFO queue with long generations,
	// then send a request with a 1ms budget: it sits behind all of them
	// (admission is FIFO), so the deadline must fire while it queues.
	const blockers = 6
	var wg sync.WaitGroup
	for i := 0; i < blockers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = g.Submit(context.Background(), []int{1, 2, 3}, 120)
		}()
	}
	for g.Snapshot().Received < blockers {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(srv.URL+"/v1/generate", "application/json",
		bytes.NewReader([]byte(`{"prompt":[4,5],"max_new_tokens":32,"timeout_ms":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
	wg.Wait()
	shutdown(t, g)
}
