package serve

import (
	"fmt"

	"github.com/lia-sim/lia/internal/units"
)

// SimulateChunked runs Sarathi-style chunked-prefill continuous batching:
// instead of stalling the running batch while a new request's whole
// prompt prefills, each scheduler iteration carries the decode batch
// *plus* up to `chunk` prompt tokens of in-flight prefills — the prompt
// rows piggyback on the batched forward pass.
//
// Caveat this simulator surfaces: chunked prefill assumes resident
// weights. In the offloaded regime every iteration moves (or CPU-reads)
// the full parameter set, so splitting an L-token prompt into L/chunk
// chunks multiplies that dominant cost by L/chunk — whole-prompt prefill
// amortizes it in a single pass. Expect chunking to help only when the
// model is (mostly) pinned; see TestChunkedPrefillCostsInOffloadedRegime.
//
// chunk is the per-iteration prefill token budget (across all prefilling
// sequences).
//
// No program calls it: it backs EXPERIMENTS.md's "chunked prefill
// inverts under offloading" through its tests until the policy becomes a
// batchpolicy option the live gateway can run too.
func SimulateChunked(cfg Config, reqs []Request, chunk int) (Metrics, error) {
	if err := cfg.check(reqs); err != nil {
		return Metrics{}, err
	}
	if chunk < 1 {
		return Metrics{}, fmt.Errorf("serve: chunk must be ≥1 token")
	}
	basePlan := cfg.basePlan()

	// Iteration cost: a decode-shaped pass whose row count is the decode
	// batch plus the piggybacked prompt tokens (that is what a chunked
	// iteration's kernel shapes look like). Costs come from the shared
	// step cache (stepcost.go), keyed by (plan, rows, context bucket).
	iterCost := func(rows, l int) (units.Seconds, error) {
		return decodeStepCost(basePlan, rows, l)
	}

	type seq struct {
		req       Request
		prefilled int // prompt tokens processed so far
		context   int
		remaining int
	}
	var (
		m         Metrics
		clock     units.Seconds
		active    []*seq // prefilling and decoding sequences together
		next      int
		latencies []units.Seconds
		queueing  []units.Seconds
	)

	for next < len(reqs) || len(active) > 0 {
		// Admit arrivals up to the batch cap; no prefill stall — they
		// start chunking on the next iteration.
		for next < len(reqs) && len(active) < cfg.MaxBatch && reqs[next].Arrival <= clock {
			r := reqs[next]
			active = append(active, &seq{req: r, remaining: r.OutputLen})
			queueing = append(queueing, clock-r.Arrival)
			next++
		}
		if len(active) == 0 {
			clock = reqs[next].Arrival
			continue
		}

		// Assemble the iteration: decode rows plus a chunk of prefill rows.
		rows := 0
		ctxSum, ctxN := 0, 0
		budget := chunk
		for _, s := range active {
			if s.prefilled < s.req.InputLen {
				take := s.req.InputLen - s.prefilled
				if take > budget {
					take = budget
				}
				rows += take
				budget -= take
			} else {
				rows++
				ctxSum += s.context
			}
			ctxN++
		}
		// len(active) > 0 here, so ctxN > 0 — no fallback default needed
		// (an earlier version carried a dead `meanCtx = 256` arm).
		total := ctxSum
		for _, s := range active {
			if s.prefilled < s.req.InputLen {
				total += s.prefilled
			}
		}
		meanCtx := total/ctxN + 1
		c, err := iterCost(rows, meanCtx)
		if err != nil {
			return Metrics{}, err
		}
		clock += c
		m.Batches++ // each scheduler iteration is one executed batch
		m.MeanBatchSize += float64(len(active))

		// Advance: prefills consume their chunk share; decoders emit one
		// token each.
		budget = chunk
		kept := active[:0]
		for _, s := range active {
			if s.prefilled < s.req.InputLen {
				take := s.req.InputLen - s.prefilled
				if take > budget {
					take = budget
				}
				s.prefilled += take
				budget -= take
				if s.prefilled >= s.req.InputLen {
					s.context = s.req.InputLen
				}
				kept = append(kept, s)
				continue
			}
			s.context++
			s.remaining--
			m.GeneratedTokens++
			if s.remaining <= 0 {
				latencies = append(latencies, clock-s.req.Arrival)
			} else {
				kept = append(kept, s)
			}
		}
		active = kept
		if clock > m.Makespan {
			m.Makespan = clock
		}
	}

	summarize(latencies, queueing, &m)
	return m, nil
}
