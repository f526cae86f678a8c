// Package llm is a functional decoder-only transformer — real float32/
// bfloat16 math, KV cache, greedy decoding — with the same six-sublayer
// decoder structure the analytical model assumes (Figure 1/6). Each
// GEMM/GEMV sublayer is routed by an offloading policy: CPU-assigned
// sublayers execute through the emulated AMX tile pipeline (package amx),
// GPU-assigned ones through the plain dense kernels (package tensor).
//
// Its purpose in the reproduction is evidence that LIA's dataflow —
// including cross-device KV-cache handling and per-sublayer device splits
// — is executable end to end, and that the offloading decision never
// changes the computed tokens (the policy-invariance property the paper's
// correctness implicitly rests on). The executor mirrors what LIA's §5
// kernels amortize: static weights are packed (the VNNI tile image, or
// amx's decoded view on hosts without the tile unit) or rounded (BF16)
// once per executor, and the KV cache grows in place, keeping attention's
// Kᵀ and V in the layout each route's kernel reads, so the steady-state
// decode loop is free of repacking, of quadratic copying, and of
// per-multiply operand decoding.
package llm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/team"
	"github.com/lia-sim/lia/internal/tensor"
)

// LayerWeights holds one decoder layer's parameters.
type LayerWeights struct {
	// LN1 and LN2 are the pre-attention and pre-FFN layer norms.
	LN1Gain, LN1Bias []float32
	LN2Gain, LN2Bias []float32
	// WQKV maps d → 3d (query, key, value fused); BQKV is its bias.
	WQKV tensor.Matrix
	BQKV []float32
	// WOut maps d → d with bias BOut.
	WOut tensor.Matrix
	BOut []float32
	// WFC1 maps d → dff, WFC2 maps dff → d.
	WFC1 tensor.Matrix
	BFC1 []float32
	WFC2 tensor.Matrix
	BFC2 []float32
}

// Model is a runnable transformer.
type Model struct {
	// Cfg describes the architecture (use TinyConfig for tests).
	Cfg model.Config
	// Embed is the token embedding (vocab × d), tied as the LM head.
	Embed tensor.Matrix
	// Pos is the learned positional embedding (maxSeq × d).
	Pos tensor.Matrix
	// Layers holds the decoder stack.
	Layers []LayerWeights
	// FinalGain and FinalBias are the final layer norm.
	FinalGain, FinalBias []float32
}

// TinyConfig returns a laptop-scale architecture with the same structure
// as the OPT family, for functional runs.
func TinyConfig() model.Config {
	return model.Config{
		Name: "tiny-opt", Layers: 2, DModel: 64, Heads: 4, KVHeads: 4,
		DFF: 256, VocabSize: 101, MaxSeqLen: 128, BytesPerParam: 2, Experts: 1,
	}
}

// NewRandom builds a model with deterministic, well-scaled random
// weights — the dummy-weight setup the paper's artifact uses (§A.5).
func NewRandom(cfg model.Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.VocabSize <= 0 || cfg.MaxSeqLen <= 0 {
		return nil, fmt.Errorf("llm: config needs vocab and max sequence length")
	}
	rng := rand.New(rand.NewSource(seed))
	d, dff := cfg.DModel, cfg.DFF
	scale := float32(0.02)
	randMat := func(r, c int) tensor.Matrix {
		m := tensor.New(r, c)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64()) * scale
		}
		return m
	}
	ones := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	zeros := func(n int) []float32 { return make([]float32, n) }

	// Grouped-query attention shrinks the K/V projections; a gated FFN
	// doubles FC1 (gate + up).
	kvDim := cfg.KVDim()
	qkvWidth := d + 2*kvDim
	fc1Width := dff
	if cfg.GatedFFN {
		fc1Width = 2 * dff
	}
	m := &Model{
		Cfg:       cfg,
		Embed:     randMat(cfg.VocabSize, d),
		Pos:       randMat(cfg.MaxSeqLen, d),
		FinalGain: ones(d),
		FinalBias: zeros(d),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Layers = append(m.Layers, LayerWeights{
			LN1Gain: ones(d), LN1Bias: zeros(d),
			LN2Gain: ones(d), LN2Bias: zeros(d),
			WQKV: randMat(d, qkvWidth), BQKV: zeros(qkvWidth),
			WOut: randMat(d, d), BOut: zeros(d),
			WFC1: randMat(d, fc1Width), BFC1: zeros(fc1Width),
			WFC2: randMat(dff, d), BFC2: zeros(d),
		})
	}
	return m, nil
}

// KVCache stores per-layer key and value matrices, preallocated to a fixed
// capacity in rows and grown row-wise in place as decoding proceeds (the
// seed implementation re-copied the whole cache every step via Concat —
// quadratic in context length), holding BF16-rounded rows as a BF16 KV
// cache does. A cache whose owner knows how far it reaches — a
// Sequence's, Generate's, a speculative draft's — holds exactly that many
// rows (see reach); one handed to a caller (Prefill, PrefillFrom) holds
// MaxSeqLen, since how far the caller will decode is unknown. Beside the
// rows it keeps the layouts attention's routes read, each built from the
// rows on the first pass that needs it, sized by the same capacity and
// kept current by Append: the dense Q·Kᵀ route's transposed mirror, and
// the AMX routes' per-KV-head tile images of Kᵀ and V. A cache holds only
// the layouts its policy reads.
type KVCache struct {
	// K and V are indexed by layer; each is (seen × KVDim), a view over a
	// backing array with capRows rows of capacity.
	K, V []tensor.Matrix
	// kT mirrors K transposed for the dense Q·Kᵀ route: kT[li] is
	// (KVDim × capRows) whose first Len() columns are valid, or empty
	// until that route first reads layer li.
	kT []tensor.Matrix
	// kImg and vImg hold, per layer and KV head, the B operands of the AMX
	// routes: Kᵀ for Q·Kᵀ and V for P·V, nil until that route first reads
	// the layer.
	kImg, vImg [][]*amx.Growing
	// heads is the KV head count; capRows is the backing capacity in rows.
	heads, capRows int
	// id identifies the cache to a MemHost (0 when no host is attached).
	id int64
}

// ID returns the cache's MemHost identifier (0 without a host).
func (c *KVCache) ID() int64 { return c.id }

// Len returns the cached context length.
func (c *KVCache) Len() int {
	if len(c.K) == 0 {
		return 0
	}
	return c.K[0].Rows
}

// Append adds rows K/V rows for layer li — row r of K is the KVDim values
// at k[r*ld], of V those at v[r*ld], so a band of wider rows such as the
// projected qkv rows is read where it lies — rounds them to bfloat16 in
// the cache's own storage (k and v stay as they are), and writes the
// rounded rows into every layout the layer has built: keys as mirror
// columns, each head's slice of a row as one position of that head's
// images. forward refuses a pass that would exceed the capacity before
// any layer runs, so Append never does.
func (c *KVCache) Append(li, rows int, k, v []float32, ld int) {
	past, cols := c.K[li].Rows, c.K[li].Cols
	kd, vd := c.K[li].Data[:(past+rows)*cols], c.V[li].Data[:(past+rows)*cols]
	for r := 0; r < rows; r++ {
		copy(kd[(past+r)*cols:(past+r+1)*cols], k[r*ld:r*ld+cols])
		copy(vd[(past+r)*cols:(past+r+1)*cols], v[r*ld:r*ld+cols])
	}
	c.K[li], c.V[li] = tensor.FromSlice(past+rows, cols, kd), tensor.FromSlice(past+rows, cols, vd)
	kNew := tensor.FromSlice(rows, cols, amx.RoundSlice(kd[past*cols:]))
	vNew := tensor.FromSlice(rows, cols, amx.RoundSlice(vd[past*cols:]))
	if c.kT[li].Data != nil {
		c.mirror(li, kNew, past)
	}
	appendHeads(c.kImg[li], kNew)
	appendHeads(c.vImg[li], vNew)
}

// mirror writes k's rows into layer li's transposed mirror as columns
// past, past+1, ….
func (c *KVCache) mirror(li int, k tensor.Matrix, past int) {
	kt := c.kT[li]
	for r := 0; r < k.Rows; r++ {
		for col, val := range k.Row(r) {
			kt.Data[col*c.capRows+past+r] = val
		}
	}
}

// keyMirror returns layer li's transposed mirror, building it from the
// cached rows on first use.
func (c *KVCache) keyMirror(li int) tensor.Matrix {
	if c.kT[li].Data == nil {
		c.kT[li] = tensor.New(c.K[li].Cols, c.capRows)
		c.mirror(li, c.K[li], 0)
	}
	return c.kT[li]
}

// keyImages returns layer li's per-head Kᵀ images, building them from the
// cached rows on first use.
func (c *KVCache) keyImages(li int) []*amx.Growing {
	if c.kImg[li] == nil {
		c.kImg[li] = c.headImages(c.K[li], amx.NewGrowingCols)
	}
	return c.kImg[li]
}

// valueImages returns layer li's per-head V images, building them from
// the cached rows on first use.
func (c *KVCache) valueImages(li int) []*amx.Growing {
	if c.vImg[li] == nil {
		c.vImg[li] = c.headImages(c.V[li], amx.NewGrowingRows)
	}
	return c.vImg[li]
}

// headImages builds one image per KV head with build, holding rows.
func (c *KVCache) headImages(rows tensor.Matrix, build func(width, capacity int) (*amx.Growing, error)) []*amx.Growing {
	imgs := make([]*amx.Growing, c.heads)
	for h := range imgs {
		g, err := build(rows.Cols/c.heads, c.capRows)
		if err != nil {
			panic(fmt.Sprintf("llm: KV cache image: %v", err))
		}
		imgs[h] = g
	}
	appendHeads(imgs, rows)
	return imgs
}

// appendHeads appends every row of m to the per-head images, head h
// taking the row's h-th slice; a layer with no images takes nothing.
func appendHeads(imgs []*amx.Growing, m tensor.Matrix) {
	if len(imgs) == 0 {
		return
	}
	dh := m.Cols / len(imgs)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for h, g := range imgs {
			if err := g.Append(row[h*dh : (h+1)*dh]); err != nil {
				panic(fmt.Sprintf("llm: KV cache append: %v", err))
			}
		}
	}
}

// Stats counts what the executor did — tests use it to prove routing.
type Stats struct {
	// CPUMatmuls and GPUMatmuls count kernel dispatches per device.
	CPUMatmuls, GPUMatmuls int
	// Int8Matmuls counts quantized (TDPBUSD) dispatches.
	Int8Matmuls int
	// SparseMatmuls counts dispatches through a sparse-bitmap AMX image,
	// and SparseBlocksSkipped the zero tile blocks those dispatches elided
	// (per weight pass, independent of the activation row count).
	SparseMatmuls       int
	SparseBlocksSkipped uint64
	// Int4Matmuls counts INT4 LUT-GEMV dispatches.
	Int4Matmuls int
	// AMXCycles accumulates emulated tile-pipeline cycles.
	AMXCycles uint64
}

// add merges another executor's counters (used when batch sequences run
// on forked executors).
func (s *Stats) add(o Stats) {
	s.CPUMatmuls += o.CPUMatmuls
	s.GPUMatmuls += o.GPUMatmuls
	s.Int8Matmuls += o.Int8Matmuls
	s.SparseMatmuls += o.SparseMatmuls
	s.SparseBlocksSkipped += o.SparseBlocksSkipped
	s.Int4Matmuls += o.Int4Matmuls
	s.AMXCycles += o.AMXCycles
}

// sharedState is the executor state that forked batch sequences reuse
// concurrently besides the weight tier: the LM head, the RoPE angle
// tables, the cache ID counter and the pack-count instrumentation.
type sharedState struct {
	// packs counts static-weight layout conversions (VNNI packs, BF16
	// roundings and the head's transpose); tests assert it stays bounded
	// by the weight count no matter how many tokens are generated.
	packs atomic.Int64

	headOnce sync.Once
	// head is the tied embedding transposed (d × vocab float32), the
	// right operand logits multiplies by; see Executor.head.
	head tensor.Matrix

	// cacheIDs issues MemHost cache identifiers, unique across every fork
	// of the executor family (IDs start at 1; 0 means "no host").
	cacheIDs atomic.Int64

	ropeOnce sync.Once
	// ropeSin/ropeCos hold sin/cos of pos·base^(-2i/d_h) for every
	// (position, pair) — float64, exactly the values math.Sincos returns
	// inside the reference applyRoPE, so the cached rotation is
	// bit-identical. Row-major by position with stride d_h/2.
	ropeSin, ropeCos []float64
}

// Executor runs a model under an offloading policy.
type Executor struct {
	// Model is the network to run.
	Model *Model
	// Policy routes each sublayer to the AMX (CPU) or dense (GPU) kernels.
	Policy core.Policy
	// Stats accumulates dispatch counters.
	Stats Stats
	// Mem, when non-nil, observes the executor's memory traffic (weight
	// packs, KV-cache lifetime, per-pass access order) — the attachment
	// point for the tiered offload runtime. Hooks are observational only:
	// tokens are bit-identical with or without a host. Set it before the
	// first pass, not concurrently with generation.
	Mem MemHost
	// pass holds the active pass's hooks; a fork runs one pass at a time
	// on one goroutine, so no synchronization is needed.
	pass PassHooks
	// tier is the active weight format — one linearOp per (layer,
	// parameter sublayer), see tier.go. NewExecutor builds the dense BF16
	// tier; an Enable* call replaces it whole; forks share it by pointer.
	tier *tier
	// shared holds the RoPE tables and family-wide counters, common to
	// every fork of this executor.
	shared *sharedState
	// ws is the pass workspace every sublayer of a pass writes into.
	ws workspace
	// Per-sequence attention scratch, reused across steps to keep the
	// decode loop off the allocator: qhBuf holds the staged query slices,
	// scoreBuf and ctxBuf the Q·Kᵀ and P·V results of either route.
	qhBuf, scoreBuf, ctxBuf []float32
	// Per-pass scratch, for the same reason: spans holds a multi-span
	// pass's spans for its attention loop, tok DecodeStep's one token.
	spans []span
	tok   [1]int
}

// workspace holds one pass's activations — the hidden rows x (which take
// both residuals in place), the normed rows, the QKV projection (its
// column bands are Q, K and V), attention's context, FC1's output, the
// gated activation, the out-projection's and FC2's result, and the
// logits of callers that keep only each row's argmax — each sized to the
// pass's rows through fit and overwritten by its kernel, so a steady
// decode loop allocates nothing per product (DESIGN.md §18). groups
// holds each span's row count in row order: the row groups the INT8
// tiers quantize separately.
type workspace struct {
	x, normed, qkv, att, h1, act, out, logits []float32
	groups                                    []int
}

// mat returns buf, through fit, as a rows × cols matrix.
func mat(buf *[]float32, rows, cols int) tensor.Matrix {
	return tensor.FromSlice(rows, cols, fit(buf, rows*cols, rows*cols))
}

// NewExecutor wires a model to a policy on the dense BF16 tier, whose
// weights are packed lazily, per route, by the first pass that needs them.
func NewExecutor(m *Model, p core.Policy) *Executor {
	return &Executor{Model: m, Policy: p, tier: newTier(m, tierDense, false, newDenseOp), shared: &sharedState{}}
}

// fork returns a child executor sharing the model, the weight tier and
// the family state, with private Stats and scratch — the unit of
// parallelism for GenerateBatch.
func (e *Executor) fork() *Executor {
	return &Executor{Model: e.Model, Policy: e.Policy, Mem: e.Mem, tier: e.tier, shared: e.shared}
}

// WeightPacks reports how many static-weight layout conversions (VNNI
// packs + BF16 roundings) the executor has performed. It is bounded by
// the number of distinct (layer, sublayer, route) combinations, never by
// the number of tokens generated.
func (e *Executor) WeightPacks() int64 { return e.shared.packs.Load() }

// linear computes x·W into dst for a parameter sublayer of layer li
// through the active tier's op for that weight. x must be freshly
// computed by the caller (the dense route rounds it to bfloat16 in place).
func (e *Executor) linear(li int, s model.Sublayer, x, dst tensor.Matrix) (tensor.Matrix, error) {
	if e.pass != nil {
		e.pass.WeightAccess(li, s)
	}
	return e.tier.ops[li][s].apply(e, li, s, x, dst)
}

// projectQKV is sublayer 1: the QKV mapping with the pre-attention
// layer norm fused in.
func (e *Executor) projectQKV(li int, x tensor.Matrix) (tensor.Matrix, error) {
	w := &e.Model.Layers[li]
	normed := tensor.LayerNorm(mat(&e.ws.normed, x.Rows, x.Cols), x, w.LN1Gain, w.LN1Bias, 1e-5)
	qkv, err := e.linear(li, model.QKVMapping, normed, mat(&e.ws.qkv, x.Rows, len(w.BQKV)))
	if err != nil {
		return qkv, err
	}
	return tensor.AddBias(qkv, w.BQKV), nil
}

// attend is sublayers 2+3 for one sequence: qkv's freshly projected rows
// — Q, K and V are its column bands, used where they lie — are rotated
// by their absolute positions, appended to the cache and scored
// against it head by head under the causal mask; row r's context lands
// in ctx's row r. e is the executor that owns the cache's sequence — its
// scratch and dispatch counters are the ones used — so a multi-span pass
// hands each sequence's fork a view of its rows of the stacked qkv and
// ctx.
func (e *Executor) attend(li int, qkv tensor.Matrix, cache *KVCache, ctx tensor.Matrix) error {
	cfg := e.Model.Cfg
	d := cfg.DModel
	dh := cfg.HeadDim()
	kvDim := cfg.KVDim()
	groups := cfg.Heads / cfg.KVHeads // query heads per KV head (1 for MHA)
	rows := qkv.Rows

	// Rotary embeddings rotate the fresh queries and keys — the first
	// Heads + KVHeads heads of each row — by their absolute positions
	// before the keys are cached (Llama-family models).
	past := cache.K[li].Rows
	if cfg.RoPE {
		e.applyRoPECached(qkv, d+kvDim, dh, past)
	}
	cache.Append(li, rows, qkv.Data[d:], qkv.Data[d+kvDim:], qkv.Cols)
	seen := cache.Len()
	if e.pass != nil {
		e.pass.KVWrite(li, rows)
		e.pass.KVRead(li, seen)
	}

	// Fused per KV head: the `groups` query heads sharing one KV head
	// stack vertically into a single (groups·rows × dh) operand, so Q·Kᵀ
	// and probs·V each dispatch once per KV head instead of once per query
	// head (2·KVHeads attention GEMMs per layer). Every kernel on this
	// path computes each output row from its own input row — the AMX tile
	// blocks zero-pad, the dense route rounds elementwise and adds each
	// row's terms in k order whether the row runs alone or in a four-row
	// block — so the stacked results are bit-identical to the per-head
	// dispatches they replace.
	invSqrt := float32(1 / math.Sqrt(float64(dh)))
	qh := tensor.FromSlice(groups*rows, dh, fit(&e.qhBuf, groups*rows*dh, groups*rows*dh))
	for kvHead := 0; kvHead < cfg.KVHeads; kvHead++ {
		// Stage the group's query slices into scratch, stacked by head:
		// the one operand both routes read.
		for g := 0; g < groups; g++ {
			h := kvHead*groups + g
			for r := 0; r < rows; r++ {
				copy(qh.Row(g*rows+r), qkv.Row(r)[h*dh:(h+1)*dh])
			}
		}
		scores, err := e.scoreKeys(li, kvHead, qh, cache)
		if err != nil {
			return err
		}
		tensor.Scale(scores, invSqrt)
		// Row g·rows+r of the stacked scores is query position past+r of
		// head g, so the causal mask applies per sub-block — the stacked
		// row index must not leak into the diagonal offset. A one-row pass
		// masks nothing: its row attends to all past+1 = seen positions.
		for g := 0; g < groups; g++ {
			tensor.CausalMask(rowRange(scores, g*rows, (g+1)*rows), past)
		}
		tensor.SoftmaxRows(scores)
		ctxH, err := e.weighValues(li, kvHead, scores, cache)
		if err != nil {
			return err
		}
		for g := 0; g < groups; g++ {
			h := kvHead*groups + g
			for r := 0; r < rows; r++ {
				copy(ctx.Row(r)[h*dh:(h+1)*dh], ctxH.Row(g*rows+r))
			}
		}
	}
	return nil
}

// scoreKeys is sublayer 2, Q·Kᵀ, for one KV head: the stacked queries qh
// (m × dh) against the head's cached keys, routed by the policy. The AMX
// route multiplies the cache's Kᵀ tile image in place; the dense route
// multiplies the head's dh rows of the transposed mirror in place, their
// first seen columns at the mirror's row stride. Both write into scratch.
func (e *Executor) scoreKeys(li, head int, qh tensor.Matrix, cache *KVCache) (tensor.Matrix, error) {
	seen := cache.Len()
	out := fit(&e.scoreBuf, qh.Rows*seen, qh.Rows*cache.capRows)
	if e.Policy.OnCPU(model.QKT) {
		err := e.tallyAMX(amx.MatmulBF16GrowingInto(out, qh.Data, qh.Rows, cache.keyImages(li)[head]))
		return tensor.FromSlice(qh.Rows, seen, out), err
	}
	kt := cache.keyMirror(li)
	return e.denseBF16Into(out, qh, tensor.Band(kt.Data[head*qh.Cols*kt.Cols:], qh.Cols, seen, kt.Cols)), nil
}

// weighValues is sublayer 3, P·V, for one KV head: the probabilities
// (m × seen) against the head's cached values, into scratch — the cache's
// V tile image on the AMX route, the head's columns of the cached V rows,
// in place, on the dense route.
func (e *Executor) weighValues(li, head int, probs tensor.Matrix, cache *KVCache) (tensor.Matrix, error) {
	dh := e.Model.Cfg.HeadDim()
	out := fit(&e.ctxBuf, probs.Rows*dh, probs.Rows*dh)
	if e.Policy.OnCPU(model.SV) {
		err := e.tallyAMX(amx.MatmulBF16GrowingInto(out, probs.Data, probs.Rows, cache.valueImages(li)[head]))
		return tensor.FromSlice(probs.Rows, dh, out), err
	}
	v := cache.V[li]
	return e.denseBF16Into(out, probs, tensor.Band(v.Data[head*dh:], probs.Cols, dh, v.Cols)), nil
}

// fit returns *buf resliced to n values, first replacing it with room
// values when it is too small: attention sizes room by the cache's
// capacity, so a context that grows a row per step reuses one buffer.
func fit(buf *[]float32, n, room int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, room)
	}
	return (*buf)[:n]
}

// finishLayer is sublayers 4–6 on x in place: the output projection
// and its residual, then the FFN (pre-LN fused) with the architecture's
// activation — SwiGLU gating for gated models, ReLU for OPT — and its
// residual. Each sublayer's bias and what follows it is one pass.
func (e *Executor) finishLayer(li int, x, ctx tensor.Matrix) error {
	cfg := e.Model.Cfg
	w := &e.Model.Layers[li]
	out, err := e.linear(li, model.OutProjection, ctx, mat(&e.ws.out, x.Rows, x.Cols))
	if err != nil {
		return err
	}
	tensor.AddBiasResidual(x, out, w.BOut)

	normed := tensor.LayerNorm(mat(&e.ws.normed, x.Rows, x.Cols), x, w.LN2Gain, w.LN2Bias, 1e-5)
	h1, err := e.linear(li, model.FC1, normed, mat(&e.ws.h1, x.Rows, len(w.BFC1)))
	if err != nil {
		return err
	}
	if cfg.GatedFFN {
		h1 = tensor.SwiGLU(mat(&e.ws.act, x.Rows, cfg.DFF), tensor.AddBias(h1, w.BFC1))
	} else {
		tensor.AddBiasReLU(h1, w.BFC1)
	}
	if _, err := e.linear(li, model.FC2, h1, out); err != nil {
		return err
	}
	tensor.AddBiasResidual(x, out, w.BFC2)
	return nil
}

// embedRow writes one token's embedding at absolute position pos into
// dst (length DModel). forward's capacity check keeps pos below the
// cache's capacity, which is at most MaxSeqLen.
func (e *Executor) embedRow(dst []float32, tok, pos int) error {
	cfg := e.Model.Cfg
	if tok < 0 || tok >= cfg.VocabSize {
		return fmt.Errorf("llm: token %d outside vocabulary [0, %d)", tok, cfg.VocabSize)
	}
	copy(dst, e.Model.Embed.Row(tok))
	if !cfg.RoPE {
		for c, pv := range e.Model.Pos.Row(pos) {
			dst[c] += pv
		}
	}
	return nil
}

// logits projects hidden states onto the (tied) vocabulary into fresh
// storage, for callers that hand the logits out; argmaxes writes the same
// product into the workspace, for callers that keep only each row's
// argmax, so it allocates nothing and is overwritten by the next pass.
func (e *Executor) logits(x tensor.Matrix) tensor.Matrix {
	return e.logitsInto(make([]float32, x.Rows*e.Model.Cfg.VocabSize), x)
}

func (e *Executor) argmaxes(x tensor.Matrix) tensor.Matrix {
	return e.logitsInto(mat(&e.ws.logits, x.Rows, e.Model.Cfg.VocabSize).Data, x)
}

// logitsInto is the final layer norm of x, then tensor.MatMulInto by the
// head (d × vocab) into out. It equals the dot product of each row with
// each embedding row bit for bit: MatMulInto adds the same terms in the
// same k order from a +0 start, and each term it skips for a zero
// coefficient is ±0 for a finite embedding, which cannot change a sum
// that started at +0.
func (e *Executor) logitsInto(out []float32, x tensor.Matrix) tensor.Matrix {
	normed := tensor.LayerNorm(mat(&e.ws.normed, x.Rows, x.Cols), x, e.Model.FinalGain, e.Model.FinalBias, 1e-5)
	h := e.head()
	return tensor.MatMulInto(out, normed, tensor.Band(h.Data, h.Rows, h.Cols, h.Cols))
}

// head returns the LM head's right operand, the tied embedding transposed
// to d × vocab, building it on first use — once per executor family, and
// counted in WeightPacks like the sublayers' conversions.
func (e *Executor) head() tensor.Matrix {
	s := e.shared
	s.headOnce.Do(func() {
		emb := e.Model.Embed
		s.head = tensor.New(emb.Cols, emb.Rows)
		for v := 0; v < emb.Rows; v++ {
			for c, x := range emb.Row(v) {
				s.head.Data[c*emb.Rows+v] = x
			}
		}
		s.packs.Add(1)
	})
	return s.head
}

// rowRange is rows [lo, hi) of x as a view.
func rowRange(x tensor.Matrix, lo, hi int) tensor.Matrix {
	return tensor.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols])
}

// reach is the capacity, in rows, of the cache of a sequence that
// prefills promptLen tokens and emits n: min(promptLen+n, MaxSeqLen).
// Plain decode appends promptLen+n-1 rows — the prompt, then one per
// emitted token but the last. A speculative verify pass can hold one
// more: it appends the emitted token and g ≤ n-len(out) proposals after
// past = promptLen+len(out)-1 rows, so past+1+g ≤ promptLen+n (SpecStep
// bounds g by the cache's capacity as well). The draft's cache tops out
// at promptLen+n-1: it holds the confirmed stream, at most
// promptLen+len(out) rows, plus its g-1 further proposals.
func (e *Executor) reach(promptLen, n int) int {
	return min(promptLen+n, e.Model.Cfg.MaxSeqLen)
}

// newCache returns an empty KV cache for the model, preallocated to
// capRows rows per layer so appends never reallocate or copy existing
// entries. Attention's derived layouts are allocated later, by the first
// pass that reads them.
func (e *Executor) newCache(capRows int) *KVCache {
	cfg := e.Model.Cfg
	kvDim := cfg.KVDim()
	layers := len(e.Model.Layers)
	c := &KVCache{
		kT:    make([]tensor.Matrix, layers),
		kImg:  make([][]*amx.Growing, layers),
		vImg:  make([][]*amx.Growing, layers),
		heads: cfg.KVHeads, capRows: capRows,
	}
	for range e.Model.Layers {
		c.K = append(c.K, tensor.NewWithCap(0, kvDim, capRows))
		c.V = append(c.V, tensor.NewWithCap(0, kvDim, capRows))
	}
	if e.Mem != nil {
		c.id = e.shared.cacheIDs.Add(1)
		e.Mem.CacheCreated(c.id)
	}
	return c
}

// RetireCache tells the attached MemHost the cache's storage can be
// reclaimed. Callers driving Prefill/DecodeStep directly own the cache
// lifetime; Generate and Sequence retire theirs automatically. Safe to
// call without a host, and idempotent on the host side.
func (e *Executor) RetireCache(c *KVCache) {
	if e.Mem != nil && c != nil && c.id != 0 {
		e.Mem.CacheRetired(c.id)
	}
}

// endPass closes the observation window forward opened.
func (e *Executor) endPass() {
	if e.pass != nil {
		e.pass.EndPass()
		e.pass = nil
	}
}

// Prefill runs the Sum stage over a prompt, returning the logits of its
// last position and the populated KV cache, which holds MaxSeqLen rows.
func (e *Executor) Prefill(prompt []int) (tensor.Matrix, *KVCache, error) {
	return e.PrefillFrom(prompt, nil)
}

// DecodeStep runs the Gen stage for one token, extending the cache: a
// one-row VerifyStep.
func (e *Executor) DecodeStep(cache *KVCache, token int) (tensor.Matrix, error) {
	e.tok[0] = token
	return e.VerifyStep(cache, e.tok[:])
}

// Generate greedily decodes n tokens after the prompt, in a cache that
// holds what they reach.
func (e *Executor) Generate(prompt []int, n int) ([]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("llm: negative token count %d", n)
	}
	logits, cache, err := e.prefill(prompt, nil, e.reach(len(prompt), n))
	if err != nil {
		return nil, err
	}
	defer e.RetireCache(cache)
	out := make([]int, 0, n)
	next := logits.ArgmaxRow(logits.Rows - 1)
	for i := 0; i < n; i++ {
		out = append(out, next)
		if i == n-1 {
			break
		}
		if next, err = e.nextToken(cache, next); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// nextToken is DecodeStep for a caller that keeps only the argmax: one
// decode step on cache, its logits left in the workspace.
func (e *Executor) nextToken(cache *KVCache, token int) (int, error) {
	e.tok[0] = token
	x, err := e.forward(context.TODO(), model.Decode, span{e, cache, e.tok[:]})
	if err != nil {
		return 0, err
	}
	return e.argmaxes(x).ArgmaxRow(0), nil
}

// TinyLlamaConfig returns a laptop-scale architecture with Llama2's
// structural features: grouped-query attention (2 KV heads for 4 query
// heads) and a SwiGLU gated FFN.
func TinyLlamaConfig() model.Config {
	return model.Config{
		Name: "tiny-llama", Layers: 2, DModel: 64, Heads: 4, KVHeads: 2,
		DFF: 96, VocabSize: 101, MaxSeqLen: 128, BytesPerParam: 2,
		GatedFFN: true, RoPE: true, Experts: 1,
	}
}

// GenerateBatch greedily decodes n tokens for each prompt, sharing the
// model weights and packed-weight caches across the batch (each sequence
// keeps its own KV cache, like the per-request caches of §2.1). Results
// align with prompts and are bit-identical to sequential generation. Call
// EnableINT8 (if wanted) before GenerateBatch, not concurrently with it.
//
// Without a memory host, prompts prefill in parallel and every decode
// iteration advances the whole batch through one fused round
// (StepBatchFused) on every tier — INT8's included, whose activation
// scale is per span: the batch's parameter sublayers stack into one
// matmul per sublayer while attention runs per sequence in parallel.
// Hosted runs and single prompts run each sequence's Generate on its own
// fork in parallel instead. Tokens are bit-identical either way; only
// the dispatch shape changes.
func (e *Executor) GenerateBatch(prompts [][]int, n int) ([][]int, error) {
	if len(prompts) == 0 {
		return nil, fmt.Errorf("llm: empty batch")
	}
	ctx := context.Background()
	out := make([][]int, len(prompts))
	if e.Mem != nil || len(prompts) == 1 {
		stats := make([]Stats, len(prompts))
		if err := team.RunErr(ctx, len(prompts), func(i int) (err error) {
			sub := e.fork()
			out[i], err = sub.Generate(prompts[i], n)
			stats[i] = sub.Stats
			return err
		}); err != nil {
			return nil, fmt.Errorf("llm: %w", err)
		}
		for _, st := range stats {
			e.Stats.add(st)
		}
		return out, nil
	}
	seqs := make([]*Sequence, len(prompts))
	if err := team.RunErr(ctx, len(prompts), func(i int) (err error) {
		seqs[i], err = e.NewSequence(prompts[i], n)
		return err
	}); err != nil {
		return nil, fmt.Errorf("llm: %w", err)
	}
	for {
		live := seqs[:0:0]
		for _, s := range seqs {
			if !s.Done() {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			break
		}
		if err := e.StepBatchFused(ctx, live); err != nil {
			return nil, err
		}
	}
	for i, s := range seqs {
		out[i] = s.Output()
		e.Stats.add(s.e.Stats)
	}
	return out, nil
}

// ropeTables returns the executor's precomputed rotation tables, building
// them on first use (once per executor; the seed recomputed
// math.Pow + math.Sincos per element per step).
func (e *Executor) ropeTables() (sin, cos []float64) {
	sh := e.shared
	sh.ropeOnce.Do(func() {
		const base = 10000.0
		cfg := e.Model.Cfg
		dh := cfg.HeadDim()
		half := dh / 2
		sh.ropeSin = make([]float64, cfg.MaxSeqLen*half)
		sh.ropeCos = make([]float64, cfg.MaxSeqLen*half)
		for pos := 0; pos < cfg.MaxSeqLen; pos++ {
			for i := 0; i < half; i++ {
				theta := float64(pos) * math.Pow(base, -2*float64(i)/float64(dh))
				s, c := math.Sincos(theta)
				sh.ropeSin[pos*half+i] = s
				sh.ropeCos[pos*half+i] = c
			}
		}
	})
	return sh.ropeSin, sh.ropeCos
}

// applyRoPECached rotates the per-head (even, odd) pairs of each row's
// first cols columns by the row's absolute position using the
// precomputed tables. The angles (and therefore the rotated values) are
// bit-identical to the reference applyRoPE — tests enforce it.
func (e *Executor) applyRoPECached(m tensor.Matrix, cols, dh, startPos int) {
	sinT, cosT := e.ropeTables()
	half := dh / 2
	heads := cols / dh
	for r := 0; r < m.Rows; r++ {
		tab := (startPos + r) * half
		row := m.Row(r)
		for h := 0; h < heads; h++ {
			off := h * dh
			for i := 0; i < half; i++ {
				sin, cos := sinT[tab+i], cosT[tab+i]
				a := float64(row[off+2*i])
				b := float64(row[off+2*i+1])
				row[off+2*i] = float32(a*cos - b*sin)
				row[off+2*i+1] = float32(a*sin + b*cos)
			}
		}
	}
}

// applyRoPE is the table-free reference rotation: pair i of a head turns
// by pos · base^(-2i/d_h) with base 10000, the standard rotary embedding.
// m holds stacked heads of width dh; row r sits at absolute position
// startPos + r. The executor uses applyRoPECached; tests pin the two to
// identical results.
func applyRoPE(m tensor.Matrix, dh, startPos int) {
	const base = 10000.0
	heads := m.Cols / dh
	for r := 0; r < m.Rows; r++ {
		pos := float64(startPos + r)
		row := m.Row(r)
		for h := 0; h < heads; h++ {
			off := h * dh
			for i := 0; i < dh/2; i++ {
				theta := pos * math.Pow(base, -2*float64(i)/float64(dh))
				sin, cos := math.Sincos(theta)
				a := float64(row[off+2*i])
				b := float64(row[off+2*i+1])
				row[off+2*i] = float32(a*cos - b*sin)
				row[off+2*i+1] = float32(a*sin + b*cos)
			}
		}
	}
}
