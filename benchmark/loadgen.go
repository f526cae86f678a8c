package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// request is one generated input: everything the program under test
// receives. Due is the open-loop send time as an offset from the phase
// start (zero in closed-loop lists).
type request struct {
	Prompt []int
	N      int
	Due    time.Duration
	// Shared marks prefix_open requests drawn from the shared-prefix
	// generator (cache reads); the rest are unshared prompts (writes).
	Shared bool
}

// submitter is the one call the load generator makes into the program:
// gateway.Gateway and router.Router both have it.
type submitter interface {
	Submit(ctx context.Context, prompt []int, n int) (gateway.Result, error)
}

// served is what the harness saw of one request.
type served struct {
	// Lag is how late the dispatcher sent it (open loop), Sent and Done
	// the send and return offsets from the phase start.
	Lag, Sent, Done time.Duration
	Res             gateway.Result
	Err             error
}

// mixSeed draws everything about a workload that decides how much work
// it is: the request shapes (prompt and output lengths, which prompts
// share a prefix) and the open-loop arrival instants. It is a constant,
// so every run serves the same mix on the same schedule and the medians
// of two seeds are medians over the same work; --seed decides the token
// ids. Drawn per seed,
// the chat mix puts 46% of requests on the 64-token cap and the e2e
// median lands on either side of that edge by luck, and the number of
// arrival bursts — which is what the TTFT tail measures — varies by a
// third.
const mixSeed = 1

// poissonDue draws the send offsets of n open-loop arrivals over the
// horizon: n sorted uniform times, which is a Poisson process
// conditioned on its count, so the offered rate is exact.
func poissonDue(n int, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(mixSeed ^ 0xa771))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(horizon))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

func randomPrompt(rng *rand.Rand, n, vocab int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = rng.Intn(vocab)
	}
	return p
}

// chatRequests generates n decode-dominated requests: blended code/chat
// output lengths capped at chatMaxOut over short random prompts. The
// seed draws the token ids.
func chatRequests(n int, seed int64) ([]request, error) {
	gen, err := trace.NewBlendGenerator(0.5, chatMinPrompt, chatMaxPrompt, mixSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]request, n)
	for i, r := range gen.Batch(n) {
		out[i] = request{Prompt: randomPrompt(rng, r.InputLen, liveVocab), N: min(r.OutputLen, chatMaxOut)}
	}
	return out, nil
}

// prefixRequests generates n prefill-dominated requests: sharedShare of
// them extend one of a few hot prefixes, the rest are long unshared
// prompts that only write to the cache. The sharing structure — which
// request extends which prefix, in what order — is part of the mix; the
// seed relabels the vocabulary, so every seed serves different tokens
// through an identical radix tree.
func prefixRequests(n int, seed int64) ([]request, error) {
	gen, err := trace.NewPrefixGenerator(trace.PrefixSpec{
		Prefixes: 8, PrefixTokens: 48, Skew: 1.2, Vocab: liveVocab,
		MinSuffix: 4, MaxSuffix: 16, OutputTokens: prefixOut,
	}, mixSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mixSeed ^ 0x5eed))
	relabel := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(liveVocab)
	out := make([]request, n)
	for i := range out {
		if rng.Float64() < prefixSharedShare {
			out[i] = request{Prompt: gen.Next().Prompt, N: prefixOut, Shared: true}
		} else {
			out[i] = request{Prompt: randomPrompt(rng, 48+rng.Intn(49), liveVocab), N: prefixOut}
		}
		for j, t := range out[i].Prompt {
			out[i].Prompt[j] = relabel[t]
		}
	}
	return out, nil
}

// withDue stamps the open-loop schedule onto a request list.
func withDue(reqs []request, horizon time.Duration) []request {
	for i, d := range poissonDue(len(reqs), horizon) {
		reqs[i].Due = d
	}
	return reqs
}

// waitUntil parks the dispatcher until t: sleep while far, then spin
// the last stretch. A plain time.Sleep lands ~0.4 ms late on the
// reference host and yielding with Gosched ~0.2 ms late while both
// cores run batcher work — a tenth of the latencies being measured.
// The spin costs the program 80 × 250 µs = 2% of one core.
func waitUntil(t time.Time) {
	const spin = 250 * time.Microsecond
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spin {
			time.Sleep(d - spin)
		}
	}
}

// runOpen sends every request at its due time from one dispatcher
// goroutine, whatever the program's backlog; an in-flight request is a
// goroutine parked inside Submit. It returns when all have returned.
func runOpen(ctx context.Context, g submitter, reqs []request) []served {
	out := make([]served, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		waitUntil(start.Add(reqs[i].Due))
		sent := time.Since(start)
		out[i].Sent, out[i].Lag = sent, sent-reqs[i].Due
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Res, out[i].Err = g.Submit(ctx, reqs[i].Prompt, reqs[i].N)
			out[i].Done = time.Since(start)
		}(i)
	}
	wg.Wait()
	return out
}

// runClosed drives clients callers that each send their next request
// only after the previous one returned, for d. Requests are taken from
// the list in order; it must be long enough not to run out.
func runClosed(ctx context.Context, g submitter, reqs []request, clients int, d time.Duration) ([]served, time.Duration) {
	out := make([]served, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i].Sent = time.Since(start)
				out[i].Res, out[i].Err = g.Submit(ctx, reqs[i].Prompt, reqs[i].N)
				out[i].Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	return out[:min(int(next.Load()), len(reqs))], wall
}

// seconds converts a virtual-clock value for reports.
func seconds(s units.Seconds) float64 { return float64(s) }
