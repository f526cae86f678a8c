package gateway

import (
	"context"
	"fmt"
	"time"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/team"
)

// entry is one live request's batcher-side state. Ref is the scheduler
// handle; a preempted request keeps its entry (and its recorded
// queue-wait/TTFT) across re-admission.
type entry struct {
	p   *pending
	ref int

	admitted  bool // queue wait recorded (first admission only)
	ttftDone  bool // TTFT recorded (first prefill only)
	queueWait time.Duration
	ttft      time.Duration
}

// run is the batcher goroutine: the only code that touches the
// scheduler, the sequences, and the per-request bookkeeping. One loop
// iteration = gather new work, reap canceled work, then one shared
// batchpolicy.Round (admit+prefill, or extend+decode+retire).
func (g *Gateway) run(sched *batchpolicy.Scheduler) {
	defer close(g.done)
	// Release the kill watcher (below) on every exit path.
	defer g.killOnce.Do(func() { close(g.kill) })

	// stepCtx aborts in-flight engine work when the drain deadline kills
	// the gateway.
	stepCtx, cancelStep := context.WithCancel(context.Background())
	defer cancelStep()
	go func() {
		<-g.kill
		cancelStep()
	}()

	var (
		backlog []*entry                  // accepted, not yet admitted
		byRef   = map[int]*entry{}        // every live request by scheduler ref
		seqs    = map[int]*llm.Sequence{} // running engine state by pool id
		nextRef int
		// ahead tracks, per pool id, KV slots reserved beyond the tokens
		// emitted so far — the speculative rounds' draft allowance.
		// ExtendAll contributes one slot per round; TryExtend tops the
		// balance up toward γ+1; each round's emissions draw it down. A
		// sequence's over-reservation is bounded by γ slots and is freed
		// with the rest of its blocks on retirement or eviction.
		ahead = map[int]int{}
	)

	accept := func(p *pending) {
		e := &entry{p: p, ref: nextRef}
		nextRef++
		byRef[e.ref] = e
		backlog = append(backlog, e)
		if g.prefix != nil {
			g.prefix.register(e.ref, p.prompt)
		}
	}
	// forget retires a ref from every side table; all removal paths go
	// through it so the prefix admitter never leaks prompt state.
	forget := func(ref int) {
		delete(byRef, ref)
		if g.prefix != nil {
			g.prefix.forget(ref)
		}
	}
	gather := func() {
		for {
			select {
			case p := <-g.submit:
				accept(p)
			default:
				return
			}
		}
	}
	respond := func(e *entry, out outcome) {
		e.p.resp <- out // buffered(1); each entry is responded to at most once
		forget(e.ref)
	}
	abortAll := func() {
		for id, s := range seqs {
			s.Release()
			delete(seqs, id)
		}
		for _, e := range byRef {
			e.p.resp <- outcome{err: ErrShuttingDown}
		}
		for {
			select {
			case p := <-g.submit:
				p.resp <- outcome{err: ErrShuttingDown}
			default:
				return
			}
		}
	}

	hooks := batchpolicy.Hooks{
		Waiting: func() []batchpolicy.Item {
			items := make([]batchpolicy.Item, len(backlog))
			for i, e := range backlog {
				items[i] = batchpolicy.Item{Ref: e.ref, PromptLen: len(e.p.prompt), OutputLen: e.p.n}
			}
			return items
		},
		Consumed: func(n int) { backlog = backlog[n:] },
		Prefill: func(admitted []batchpolicy.Seq) error {
			// Record queue waits at the admission decision, then prefill
			// every admitted prompt in parallel on the worker team (whose
			// nested kernels then run inline). Per-request failures (which
			// validation should have made impossible) fail that request
			// alone.
			for _, a := range admitted {
				e := byRef[a.Item.Ref]
				if !e.admitted {
					e.admitted = true
					e.queueWait = time.Since(e.p.enqueued)
					g.m.queueWait.observe(e.queueWait)
				}
			}
			type prefillRes struct {
				s   *llm.Sequence
				err error
			}
			// Capture seeds on the batcher goroutine (the admitter's maps
			// are confined here), then prefill in parallel: with the prefix
			// cache on, each sequence resumes from its pinned cached prefix
			// and computes only the unshared suffix.
			type prefillJob struct {
				prompt []int
				n      int
				seed   *llm.KVSeed
			}
			jobs := make([]prefillJob, len(admitted))
			for i, a := range admitted {
				prompt := byRef[a.Item.Ref].p.prompt
				jobs[i] = prefillJob{prompt: prompt, n: a.Item.OutputLen, seed: g.seedFor(a.ID, prompt)}
			}
			results := make([]prefillRes, len(jobs))
			mapErr := team.RunErr(stepCtx, len(jobs), func(i int) error {
				j := jobs[i]
				results[i].s, results[i].err = g.exec.NewSequenceFrom(j.prompt, j.n, j.seed)
				return nil
			})
			if mapErr != nil { // kill aborted the prefill wave mid-flight: a shutdown, so a router fails these over
				for _, a := range admitted {
					if rmErr := sched.Remove(a.ID); rmErr != nil {
						continue
					}
					if e, ok := byRef[a.Item.Ref]; ok {
						respond(e, outcome{err: ErrShuttingDown})
					}
				}
				return nil
			}
			for i, a := range admitted {
				e := byRef[a.Item.Ref]
				if results[i].err != nil {
					if rmErr := sched.Remove(a.ID); rmErr != nil {
						results[i].err = fmt.Errorf("%w (and removing it failed: %v)", results[i].err, rmErr)
					}
					respond(e, outcome{err: fmt.Errorf("gateway: prefill: %w", results[i].err)})
					continue
				}
				seqs[a.ID] = results[i].s
				// Cache the freshly computed prefix for future requests
				// (a no-op for blocks already in the tree).
				g.insertPrefix(e.p.prompt, results[i].s)
				if !e.ttftDone {
					e.ttftDone = true
					e.ttft = time.Since(e.p.enqueued)
					g.m.ttft.observe(e.ttft)
				}
			}
			return nil
		},
		PrefillChunk: func(prefilling []batchpolicy.Seq) error {
			// First sight of a sequence is its admission: record the queue
			// wait and build the chunked engine sequence (resuming from a
			// cached prefix when the tree has one). Then every listed
			// sequence computes one prompt chunk, in parallel on the worker
			// team. The scheduler walks the full prompt even when a prefix
			// seed let the engine skip ahead, so the engine-side advance
			// no-ops once its (shorter) remainder is done.
			for _, a := range prefilling {
				e := byRef[a.Item.Ref]
				if !e.admitted {
					e.admitted = true
					e.queueWait = time.Since(e.p.enqueued)
					g.m.queueWait.observe(e.queueWait)
				}
				if seqs[a.ID] != nil {
					continue
				}
				s, err := g.exec.NewSequenceChunked(e.p.prompt, a.Item.OutputLen, sched.Chunk(), g.seedFor(a.ID, e.p.prompt))
				if err != nil {
					if rmErr := sched.Remove(a.ID); rmErr != nil {
						err = fmt.Errorf("%w (and removing it failed: %v)", err, rmErr)
					}
					respond(e, outcome{err: fmt.Errorf("gateway: chunked prefill: %w", err)})
					continue
				}
				seqs[a.ID] = s
			}
			type chunkRes struct {
				done bool
				err  error
			}
			var live []batchpolicy.Seq
			for _, a := range prefilling {
				if seqs[a.ID] != nil {
					live = append(live, a)
				}
			}
			results := make([]chunkRes, len(live))
			mapErr := team.RunErr(stepCtx, len(live), func(i int) error {
				results[i].done, results[i].err = seqs[live[i].ID].AdvancePrefill()
				return nil
			})
			if mapErr != nil { // kill aborted the chunk wave mid-flight: a shutdown too
				for _, a := range live {
					if rmErr := sched.Remove(a.ID); rmErr != nil {
						continue
					}
					seqs[a.ID].Release()
					delete(seqs, a.ID)
					if e, ok := byRef[a.Item.Ref]; ok {
						respond(e, outcome{err: ErrShuttingDown})
					}
				}
				return nil
			}
			for i, a := range live {
				e := byRef[a.Item.Ref]
				if results[i].err != nil {
					err := results[i].err
					if rmErr := sched.Remove(a.ID); rmErr != nil {
						err = fmt.Errorf("%w (and removing it failed: %v)", err, rmErr)
					}
					seqs[a.ID].Release()
					delete(seqs, a.ID)
					respond(e, outcome{err: fmt.Errorf("gateway: chunked prefill: %w", err)})
					continue
				}
				g.m.prefillChunks.Add(1)
				if results[i].done {
					// Cache the completed prefix for future requests (no-op
					// for blocks already in the tree).
					g.insertPrefix(e.p.prompt, seqs[a.ID])
					if !e.ttftDone {
						// The final chunk computed the first pending token.
						e.ttftDone = true
						e.ttft = time.Since(e.p.enqueued)
						g.m.ttft.observe(e.ttft)
					}
				}
			}
			return nil
		},
		Step: func(running []batchpolicy.Seq) error {
			live := make([]*llm.Sequence, len(running))
			for i, r := range running {
				live[i] = seqs[r.ID]
			}
			start := time.Now()
			// Fused decode: the whole batch's parameter GEMMs stack into
			// one call per sublayer (bit-identical to per-sequence steps;
			// INT8 and offloaded executors fall back internally).
			if err := g.exec.StepBatchFused(stepCtx, live); err != nil {
				return err
			}
			g.m.perToken.observe(time.Since(start))
			g.m.tokens.Add(uint64(len(running)))
			return nil
		},
		Evicted: func(evicted []batchpolicy.Seq) {
			// Preempted sequences lose their engine state; re-admission
			// recomputes the prefill (the tokens are deterministic, so the
			// client still sees one coherent stream).
			for _, ev := range evicted {
				if s := seqs[ev.ID]; s != nil {
					s.Release()
				}
				delete(seqs, ev.ID)
				delete(ahead, ev.ID)
			}
		},
		Finished: func(finished []batchpolicy.Seq) {
			for _, f := range finished {
				e := byRef[f.Item.Ref]
				s := seqs[f.ID]
				delete(seqs, f.ID)
				delete(ahead, f.ID)
				toks := make([]int, len(s.Output()))
				copy(toks, s.Output())
				s.Release()
				respond(e, outcome{res: Result{
					Tokens:    toks,
					QueueWait: e.queueWait,
					TTFT:      e.ttft,
					Total:     time.Since(e.p.enqueued),
				}})
			}
		},
	}

	if g.draft != nil {
		// Speculative decode rounds replace Step: each ready sequence runs
		// one draft-and-verify round, emitting 1+accepted tokens per target
		// pass. The emitted stream is bit-identical to plain decode.
		hooks.StepN = func(running []batchpolicy.Seq) (map[int]int, error) {
			gamma := g.cfg.SpecGamma
			for _, r := range running {
				s := seqs[r.ID]
				if !s.SpecEnabled() {
					// First decode round for this sequence: attach a draft
					// fork, prefilled over the confirmed stream.
					if err := s.EnableSpec(g.draft, gamma); err != nil {
						return nil, err
					}
				}
				// ExtendAll reserved this round's guaranteed slot; top the
				// balance up toward γ+1 so the round can draft. Refusals
				// just shallow this round's draft — never fatal, and never
				// preempting.
				ahead[r.ID]++
				for ahead[r.ID] < gamma+1 && sched.TryExtend(r.ID) {
					ahead[r.ID]++
				}
			}
			type specRes struct {
				emitted int
				stats   llm.SpecStats
			}
			start := time.Now()
			results := make([]specRes, len(running))
			mapErr := team.RunErr(stepCtx, len(running), func(i int) error {
				s := seqs[running[i].ID]
				prev := s.SpecStats()
				emitted, err := s.SpecStep(ahead[running[i].ID])
				if err != nil {
					return err
				}
				cur := s.SpecStats()
				results[i] = specRes{emitted: emitted, stats: llm.SpecStats{
					Rounds:   cur.Rounds - prev.Rounds,
					Drafted:  cur.Drafted - prev.Drafted,
					Accepted: cur.Accepted - prev.Accepted,
					Emitted:  cur.Emitted - prev.Emitted,
				}}
				return nil
			})
			if mapErr != nil {
				return nil, mapErr
			}
			g.m.perToken.observe(time.Since(start))
			counts := make(map[int]int, len(running))
			for i, r := range running {
				counts[r.ID] = results[i].emitted
				ahead[r.ID] -= results[i].emitted
				if ahead[r.ID] < 0 {
					ahead[r.ID] = 0
				}
				g.m.tokens.Add(uint64(results[i].emitted))
				g.m.specRounds.Add(uint64(results[i].stats.Rounds))
				g.m.specDrafted.Add(uint64(results[i].stats.Drafted))
				g.m.specAccepted.Add(uint64(results[i].stats.Accepted))
				g.m.specEmitted.Add(uint64(results[i].stats.Emitted))
			}
			return counts, nil
		}
	}

	// expired reports whether a request's budget is spent: its context is
	// done, or its wall-clock deadline has passed. The second clause is
	// load-bearing on a saturated box: the runtime can deliver a context's
	// deadline timer many milliseconds late while the batcher monopolizes
	// the CPU, so budget enforcement reads the clock directly instead of
	// waiting for ctx.Err() to flip.
	expired := func(ctx context.Context) bool {
		if ctx.Err() != nil {
			return true
		}
		d, ok := ctx.Deadline()
		return ok && !time.Now().Before(d)
	}
	// reapErr is the error a reaped request is answered with. Answering
	// (rather than relying on the client's own ctx.Done()) matters for the
	// same reason expired checks the clock: the client may not see its
	// timer fire for a while, but it is always watching the resp channel.
	reapErr := func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return context.DeadlineExceeded
	}

	reapCanceled := func() {
		kept := backlog[:0]
		for _, e := range backlog {
			if expired(e.p.ctx) {
				respond(e, outcome{err: reapErr(e.p.ctx)})
			} else {
				kept = append(kept, e)
			}
		}
		backlog = kept
		// Scheduler-owned work goes through the reap pass the virtual
		// machines share. A release error still means the work is gone, so
		// every reaped request is answered regardless.
		reaped, _ := sched.Reap(func(ref int) bool { return expired(byRef[ref].p.ctx) })
		for _, seq := range reaped {
			if s := seqs[seq.ID]; s != nil {
				s.Release()
			}
			delete(seqs, seq.ID)
			delete(ahead, seq.ID)
			e := byRef[seq.Item.Ref]
			respond(e, outcome{err: reapErr(e.p.ctx)})
		}
	}

	// publishLoad refreshes the health gauges the router's probes read;
	// the pool and scheduler are confined here, so each round exports a
	// consistent view through atomics.
	publishLoad := func() {
		if p := sched.Pool(); p != nil {
			g.kvFree.Store(int64(p.FreeBlocks()))
		}
		g.running.Store(int64(sched.RunningLen()))
	}
	defer publishLoad()

	for {
		select {
		case <-g.kill:
			abortAll()
			return
		default:
		}
		gather()
		reapCanceled()
		publishLoad()

		if !sched.Busy() && len(backlog) == 0 {
			// Idle. Exit if draining, otherwise block for the next
			// submission (or shutdown).
			select {
			case <-g.stop:
				return
			default:
			}
			select {
			case p := <-g.submit:
				accept(p)
			case <-g.stop:
			case <-g.kill:
			}
			continue
		}

		progressed, err := batchpolicy.Round(sched, hooks)
		if err != nil {
			g.failRound(sched, seqs, byRef, err)
			clear(ahead) // the whole batch is gone; reservations went with it
			continue
		}
		if !progressed && len(backlog) > 0 {
			// Nothing running and the backlog head cannot be placed even
			// into a drained pool — validation should have shed it, so
			// fail it rather than spin.
			e := backlog[0]
			backlog = backlog[1:]
			respond(e, outcome{err: fmt.Errorf("gateway: request cannot be placed: prompt %d tokens", len(e.p.prompt))})
		}
	}
}

// failRound handles a Round error: a sole running sequence that cannot
// extend its KV reservation (fail that one request, keep serving), or an
// engine/step failure (fail the whole running batch, keep accepting).
func (g *Gateway) failRound(sched *batchpolicy.Scheduler, seqs map[int]*llm.Sequence, byRef map[int]*entry, err error) {
	select {
	case <-g.kill: // the step was aborted by the drain deadline, not broken
		err = ErrShuttingDown
	default:
	}
	for _, seq := range sched.Running() {
		if rmErr := sched.Remove(seq.ID); rmErr != nil {
			continue
		}
		if s := seqs[seq.ID]; s != nil {
			s.Release()
		}
		delete(seqs, seq.ID)
		if e, ok := byRef[seq.Item.Ref]; ok {
			e.p.resp <- outcome{err: fmt.Errorf("gateway: %w", err)}
			delete(byRef, e.ref)
			if g.prefix != nil {
				g.prefix.forget(e.ref)
			}
		}
	}
}
