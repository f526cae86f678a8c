// Speculative decoding on the functional engine: a cheap draft model
// proposes γ tokens per round and the target scores them all in one
// multi-row VerifyStep pass — the "score γ+1 positions for nearly the
// price of one" economics LIA's Figure 3 identifies on per-pass-
// dominated hardware, which internal/spec prices analytically. Greedy
// acceptance keeps the emitted stream provably bit-identical to
// token-by-token decode: a proposal is accepted only when it EQUALS the
// target's own argmax at that position, and the first disagreement is
// replaced by that argmax, so every emitted token is the target's
// sequential greedy choice by induction (VerifyStep row i ==
// DecodeStep-after-tokens[:i+1], see verify.go).
package llm

import "fmt"

// SpecStats counts what the speculative loop did. AcceptanceRate and
// TokensPerRound are the empirical counterparts of internal/spec's
// analytic α and E[tokens/round]; the cross-validation test compares
// them.
type SpecStats struct {
	// Rounds counts draft-and-verify rounds (PlainSteps counts the
	// single-token fallback steps taken when the per-round budget or the
	// sequence tail left no room to draft).
	Rounds     int
	PlainSteps int
	// Drafted and Accepted count proposed tokens and the ones that
	// matched the target's argmax.
	Drafted  int
	Accepted int
	// Emitted counts tokens emitted through SpecStep.
	Emitted int
}

// AcceptanceRate returns the empirical per-token acceptance probability
// α̂ = Accepted/Drafted (0 before any drafting).
func (s SpecStats) AcceptanceRate() float64 {
	if s.Drafted == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Drafted)
}

// TokensPerRound returns the mean tokens emitted per verify round
// (1 + Accepted/Rounds): each round emits the held pending token plus
// its accepted proposals. 0 before any rounds.
func (s SpecStats) TokensPerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return 1 + float64(s.Accepted)/float64(s.Rounds)
}

// specState is a sequence's attached draft: a forked draft executor,
// the draft's own KV cache over the confirmed stream, and the round
// accounting.
type specState struct {
	draft  *Executor
	dcache *KVCache
	gamma  int
	stats  SpecStats
	// drafts and vfeed are per-round scratch (proposals; verify input).
	drafts []int
	vfeed  []int
}

// DraftModel derives a shallow draft from a target model: the first
// `layers` decoder layers wrapped in the target's own embeddings,
// positional table and final norm. Sharing the weight matrices (they
// are immutable after construction) keeps the draft's argmax surface
// correlated with the target's — the property that makes acceptance
// rates non-trivial — while cutting per-token cost by the layer ratio.
func DraftModel(m *Model, layers int) (*Model, error) {
	if m == nil {
		return nil, fmt.Errorf("llm: draft of nil model")
	}
	if layers < 1 || layers > len(m.Layers) {
		return nil, fmt.Errorf("llm: draft depth %d outside [1, %d]", layers, len(m.Layers))
	}
	cfg := m.Cfg
	cfg.Layers = layers
	cfg.Name = fmt.Sprintf("%s-draft%d", cfg.Name, layers)
	return &Model{
		Cfg:       cfg,
		Embed:     m.Embed,
		Pos:       m.Pos,
		Layers:    m.Layers[:layers:layers],
		FinalGain: m.FinalGain,
		FinalBias: m.FinalBias,
	}, nil
}

// SpecEnabled reports whether the sequence decodes speculatively.
func (s *Sequence) SpecEnabled() bool { return s.spec != nil }

// SpecStats returns the sequence's speculative counters (zero when
// speculation is not enabled).
func (s *Sequence) SpecStats() SpecStats {
	if s.spec == nil {
		return SpecStats{}
	}
	return s.spec.stats
}

// EnableSpec attaches a draft executor so subsequent SpecStep calls
// decode speculatively. The draft is forked (private stats/scratch) and
// prefilled over the confirmed stream so far. Call it once, after
// prefill completes (for chunked sequences: after AdvancePrefill
// reports done) and before the sequence finishes.
//
// Both executors must be on the BF16 path without a memory host: INT8's
// per-span activation scale breaks the multi-row == sequential
// equivalence the acceptance rule relies on, and a MemHost is not told
// about the verify pass's speculative row rollbacks. Callers wanting
// those modes keep plain Step (the gateway validates this up front).
func (s *Sequence) EnableSpec(draft *Executor, gamma int) error {
	if s.spec != nil {
		return fmt.Errorf("llm: speculation already enabled")
	}
	if draft == nil {
		return fmt.Errorf("llm: nil draft executor")
	}
	if gamma < 1 {
		return fmt.Errorf("llm: speculative depth γ must be ≥1, got %d", gamma)
	}
	if s.Prefilling() {
		return fmt.Errorf("llm: enable speculation after prefill completes")
	}
	if s.Done() {
		return fmt.Errorf("llm: sequence already finished")
	}
	tcfg, dcfg := s.e.Model.Cfg, draft.Model.Cfg
	if dcfg.VocabSize != tcfg.VocabSize {
		return fmt.Errorf("llm: draft vocabulary %d != target %d", dcfg.VocabSize, tcfg.VocabSize)
	}
	if dcfg.MaxSeqLen < tcfg.MaxSeqLen {
		return fmt.Errorf("llm: draft max sequence %d < target %d", dcfg.MaxSeqLen, tcfg.MaxSeqLen)
	}
	if s.e.tier.rowCoupled || draft.tier.rowCoupled {
		return fmt.Errorf("llm: speculative decoding requires the BF16 path (an INT8 activation scale is per span, and verification splits a sequence's rows across passes)")
	}
	if s.e.Mem != nil || draft.Mem != nil {
		return fmt.Errorf("llm: speculative decoding does not compose with a memory host")
	}
	sub := draft.fork()
	confirmed := make([]int, 0, len(s.prompt)+len(s.out))
	confirmed = append(confirmed, s.prompt...)
	confirmed = append(confirmed, s.out...)
	_, dcache, err := sub.prefill(confirmed, nil, sub.reach(len(s.prompt), s.target))
	if err != nil {
		return fmt.Errorf("llm: draft prefill: %w", err)
	}
	s.spec = &specState{draft: sub, dcache: dcache, gamma: gamma}
	return nil
}

// SpecStep emits the pending token and up to γ draft-verified
// successors in one target pass, returning how many tokens were emitted
// (≥1). The emitted stream is bit-identical to repeated Step calls.
//
// allow caps the KV rows this round may durably append (the scheduler's
// reservation budget): the round keeps at most allow rows, so at most
// allow-1 tokens are drafted. Values below 1 are treated as 1 — the
// pre-reserved decode slot always guarantees single-token progress.
// Pass the model's MaxSeqLen when unconstrained. The round also keeps
// within the cache's capacity, which reach sizes to hold every round.
//
// One round: the held pending token t is emitted; the draft (lazily
// resynced to the confirmed stream) proposes p₁…p_γ'; the target scores
// [t, p₁…p_γ'] in one VerifyStep; the longest prefix with
// pᵢ == argmax(row i−1) is accepted, the next pending becomes
// argmax(row k) — the target's own choice at the first disagreement
// (or the bonus position) — and both caches roll back the rejected
// rows.
func (s *Sequence) SpecStep(allow int) (int, error) {
	if s.spec == nil {
		return 0, fmt.Errorf("llm: SpecStep without EnableSpec")
	}
	if s.Prefilling() {
		return 0, fmt.Errorf("llm: sequence is still prefilling (%d/%d prompt tokens)", s.prefillPos, len(s.prompt))
	}
	if s.Done() {
		return 0, fmt.Errorf("llm: sequence already emitted its %d tokens", s.target)
	}
	sp := s.spec
	tok := s.pending
	s.out = append(s.out, tok)
	sp.stats.Emitted++
	if s.Done() {
		// Final token: the last decode is skipped exactly as Step skips it.
		return 1, nil
	}

	past := s.cache.Len() // rows for prompt + out[:len(out)-1]
	g := sp.gamma
	if r := s.target - len(s.out); g > r {
		g = r
	}
	if a := allow - 1; g > a {
		g = a
	}
	if p := s.cache.capRows - 1 - past; g > p {
		g = p
	}
	if g < 1 {
		// No room to draft — plain sequential step.
		logits, err := s.e.DecodeStep(s.cache, tok)
		if err != nil {
			return 0, err
		}
		s.pending = logits.ArgmaxRow(0)
		sp.stats.PlainSteps++
		return 1, nil
	}

	// Draft proposal. The draft cache may trail the confirmed stream by
	// the tokens a previous fully-accepted round never fed it; the sync
	// rows ride along in the same multi-row pass as the emitted token.
	P := len(s.prompt)
	feed := s.out[sp.dcache.Len()-P:] // trailing confirmed tokens, ends with tok
	dlogits, err := sp.draft.VerifyStep(sp.dcache, feed)
	if err != nil {
		return 0, err
	}
	drafts := sp.drafts[:0]
	next := dlogits.ArgmaxRow(dlogits.Rows - 1)
	drafts = append(drafts, next)
	for len(drafts) < g {
		dl, err := sp.draft.DecodeStep(sp.dcache, next)
		if err != nil {
			return 0, err
		}
		next = dl.ArgmaxRow(0)
		drafts = append(drafts, next)
	}
	sp.drafts = drafts

	// Target verification: one pass scores the emitted token and every
	// proposal.
	vfeed := append(sp.vfeed[:0], tok)
	vfeed = append(vfeed, drafts...)
	sp.vfeed = vfeed
	logits, err := s.e.VerifyStep(s.cache, vfeed)
	if err != nil {
		return 0, err
	}
	k := 0
	for k < g && drafts[k] == logits.ArgmaxRow(k) {
		k++
	}
	s.pending = logits.ArgmaxRow(k)
	s.cache.Truncate(past + 1 + k)
	s.out = append(s.out, drafts[:k]...)
	sp.stats.Rounds++
	sp.stats.Drafted += g
	sp.stats.Accepted += k
	sp.stats.Emitted += k
	// Roll the draft back to the confirmed stream (rejected proposals
	// out; a fully-accepted round leaves it one token short, which the
	// next round's sync feed covers).
	if confirmed := P + len(s.out); sp.dcache.Len() > confirmed {
		sp.dcache.Truncate(confirmed)
	}
	return 1 + k, nil
}

// SpecGenerate greedily decodes n tokens after the prompt with
// draft-and-verify speculative decoding — bit-identical to
// Generate(prompt, n), typically in far fewer target passes. It returns
// the emitted tokens and the round statistics the cross-validation
// against internal/spec's analytic model consumes.
//
// INT8 mode (on either executor) and attached memory hosts fall back to
// plain Generate with zero SpecStats — the same precedent PrefillFrom
// sets for per-span-scale-coupled numerics. Not safe for concurrent use
// with the same draft executor (stats merge); fork per caller.
func (e *Executor) SpecGenerate(prompt []int, n int, draft *Executor, gamma int) ([]int, SpecStats, error) {
	if draft == nil {
		return nil, SpecStats{}, fmt.Errorf("llm: nil draft executor")
	}
	if gamma < 1 {
		return nil, SpecStats{}, fmt.Errorf("llm: speculative depth γ must be ≥1, got %d", gamma)
	}
	if e.tier.rowCoupled || draft.tier.rowCoupled || e.Mem != nil || draft.Mem != nil {
		out, err := e.Generate(prompt, n)
		return out, SpecStats{}, err
	}
	s, err := e.NewSequence(prompt, n)
	if err != nil {
		return nil, SpecStats{}, err
	}
	defer s.Release()
	if err := s.EnableSpec(draft, gamma); err != nil {
		return nil, SpecStats{}, err
	}
	for !s.Done() {
		if _, err := s.SpecStep(e.Model.Cfg.MaxSeqLen); err != nil {
			return nil, SpecStats{}, err
		}
	}
	e.Stats.add(s.e.Stats)
	draft.Stats.add(s.spec.draft.Stats)
	return s.Output(), s.SpecStats(), nil
}
