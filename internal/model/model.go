// Package model describes decoder-only transformer architectures (the OPT
// family the paper evaluates, plus Llama2, Chinchilla, Bloom, and a
// Mixture-of-Experts variant for §7.1's adaptability discussion) and
// implements the paper's Table 1: the operand sizes D_X and D_Y and the
// FLOP count C of every GEMM/GEMV sublayer in a decoder layer, for both
// the prefill and decoding stages, in BF16.
//
// These formulas are the inputs to LIA's compute-offloading optimizer
// (package core) and the memory planner (package memplan); the ops/byte
// heatmap of Figure 1 falls directly out of them.
package model

import (
	"fmt"

	"github.com/lia-sim/lia/internal/units"
)

// Stage distinguishes the two phases of autoregressive inference.
type Stage int

// Inference stages.
const (
	// Prefill (the "Sum" stage) processes the whole input sequence at once
	// and materializes the KV cache.
	Prefill Stage = iota
	// Decode (the "Gen" stage) processes one new token per step, reusing
	// the KV cache.
	Decode
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	if s == Prefill {
		return "prefill"
	}
	return "decode"
}

// Sublayer indexes the six GEMM/GEMV sublayers of a decoder layer in
// execution order, matching Figure 6 (softmax/layernorm/residual are fused
// into their neighbours, §2.1).
type Sublayer int

// The six sublayers.
const (
	// QKVMapping projects the hidden states to queries, keys and values.
	QKVMapping Sublayer = iota
	// QKT is the attention-scoring product Q×Kᵀ against the KV cache.
	QKT
	// SV is the attention-weighted value product S×V.
	SV
	// OutProjection projects attention output back to the model dimension
	// (carries the attention residual).
	OutProjection
	// FC1 is the first feed-forward matrix (d_model → d_ff).
	FC1
	// FC2 is the second feed-forward matrix (d_ff → d_model, carries the
	// FFN residual).
	FC2
)

// NumSublayers is the length of an offloading vector.
const NumSublayers = 6

// String implements fmt.Stringer.
func (s Sublayer) String() string {
	switch s {
	case QKVMapping:
		return "QKV"
	case QKT:
		return "QxK^T"
	case SV:
		return "SxV"
	case OutProjection:
		return "OutProj"
	case FC1:
		return "FC1"
	case FC2:
		return "FC2"
	default:
		return fmt.Sprintf("Sublayer(%d)", int(s))
	}
}

// Sublayers lists all six in execution order.
func Sublayers() [NumSublayers]Sublayer {
	return [NumSublayers]Sublayer{QKVMapping, QKT, SV, OutProjection, FC1, FC2}
}

// QuantPolicy names a weight-compression compute tier. The empty string
// is dense BF16 (the paper's baseline). Policies change how parameter
// bytes and parameter-sublayer FLOPs are priced; activations and the KV
// cache stay BF16 under every policy (§6: attention is the precision-
// and bandwidth-sensitive path).
type QuantPolicy string

// The weight-compression tiers the stack serves.
const (
	// QuantDense is uncompressed BF16 weights.
	QuantDense QuantPolicy = ""
	// QuantSparse is SparAMX-style block sparsity: whole AMX tile blocks
	// of the weight are zero and the kernel skips them, so parameter
	// bytes and parameter-sublayer FLOPs both scale by the nonzero-block
	// fraction (cycles ∝ nonzero blocks — the calibrated kernel model).
	QuantSparse QuantPolicy = "sparse"
	// QuantINT4LUT is SAIL-style INT4 group quantization served through
	// the lookup-table GEMV kernel: 0.5 bytes per weight plus one 2-byte
	// bf16 scale per (group, column). FLOPs are priced unchanged — the
	// LUT path does one lookup+add per weight element, the same lane
	// count as a MAC.
	QuantINT4LUT QuantPolicy = "int4lut"
)

// QuantSpec parameterizes a weight-compression tier on a Config.
type QuantSpec struct {
	// Policy selects the tier (QuantDense when empty).
	Policy QuantPolicy
	// BlockSparsity is the zero tile-block fraction in [0, 1) for
	// QuantSparse.
	BlockSparsity float64
	// Group is the quantization group length along K for QuantINT4LUT
	// (0 selects 128, matching quant.DefaultGroupINT4).
	Group int
}

// defaultInt4Group mirrors quant.DefaultGroupINT4 (model cannot import
// quant — it sits below it).
const defaultInt4Group = 128

// paramByteScale returns the multiplier compressed parameter bytes carry
// relative to the dense BF16 footprint (1 for dense; the zero-block
// bitmap's bit-per-block is below the accessors' byte resolution and is
// priced at zero).
func (q QuantSpec) paramByteScale(bytesPerParam int) float64 {
	switch q.Policy {
	case QuantSparse:
		return 1 - q.BlockSparsity
	case QuantINT4LUT:
		group := q.Group
		if group <= 0 {
			group = defaultInt4Group
		}
		// 0.5 nibble bytes per weight plus 2 scale bytes amortized over a
		// group of weights, against bytesPerParam dense bytes.
		return (0.5 + 2/float64(group)) / float64(bytesPerParam)
	default:
		return 1
	}
}

// paramFLOPScale returns the multiplier compressed parameter-sublayer
// FLOPs carry: the sparse kernel skips zero blocks outright (cycles ∝
// nonzero blocks, pinned against the emulated kernel by the amx tests),
// every other tier executes the full MAC (or lookup+add) grid.
func (q QuantSpec) paramFLOPScale() float64 {
	if q.Policy == QuantSparse {
		return 1 - q.BlockSparsity
	}
	return 1
}

// Validate reports malformed quantization specs.
func (q QuantSpec) Validate() error {
	switch q.Policy {
	case QuantDense:
	case QuantSparse:
		if q.BlockSparsity < 0 || q.BlockSparsity >= 1 {
			return fmt.Errorf("model: block sparsity must be in [0, 1), got %g", q.BlockSparsity)
		}
	case QuantINT4LUT:
		if q.Group < 0 {
			return fmt.Errorf("model: int4 group must be ≥ 0, got %d", q.Group)
		}
	default:
		return fmt.Errorf("model: unknown quant policy %q", q.Policy)
	}
	return nil
}

// Config describes one decoder-only transformer architecture.
type Config struct {
	// Name identifies the model, e.g. "OPT-175B".
	Name string
	// Layers is the decoder layer count N.
	Layers int
	// DModel is the hidden dimension d_m.
	DModel int
	// Heads is the attention head count n_h.
	Heads int
	// KVHeads is the key/value head count (== Heads for multi-head
	// attention; smaller for grouped-query attention as in Llama2-70B).
	KVHeads int
	// DFF is the feed-forward intermediate dimension (4·DModel for OPT).
	DFF int
	// VocabSize is the token vocabulary size.
	VocabSize int
	// MaxSeqLen is the maximum model-defined sequence length.
	MaxSeqLen int
	// BytesPerParam is the parameter width (2 for BF16).
	BytesPerParam int
	// Experts is the FFN expert count: 1 for dense models; >1 models a
	// Mixture-of-Experts FFN whose full expert parameters must be resident
	// (or transferred) while only one expert's FLOPs execute per token.
	Experts int
	// GatedFFN marks a SwiGLU-style FFN (gate + up projections), which
	// doubles FC1's parameters and FLOPs.
	GatedFFN bool
	// RoPE selects rotary position embeddings instead of learned absolute
	// positions (the Llama family). It changes the functional engine's
	// attention math, not the Table 1 formulas.
	RoPE bool
	// Quant selects the weight-compression compute tier the deployment
	// serves (dense BF16 when zero). It scales parameter-operand bytes
	// (DataY of the four parameter sublayers, LayerParamBytes, ParamBytes)
	// and — for the sparse tier — parameter-sublayer FLOPs; activations
	// and the KV cache stay BF16.
	Quant QuantSpec
}

// Validate reports structural errors in the configuration.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model %s: layers must be positive", c.Name)
	case c.DModel <= 0 || c.Heads <= 0 || c.KVHeads <= 0:
		return fmt.Errorf("model %s: dimensions must be positive", c.Name)
	case c.DModel%c.Heads != 0:
		return fmt.Errorf("model %s: d_model %d not divisible by %d heads", c.Name, c.DModel, c.Heads)
	case c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model %s: heads %d not divisible by %d KV heads", c.Name, c.Heads, c.KVHeads)
	case c.DFF <= 0 || c.BytesPerParam <= 0 || c.Experts <= 0:
		return fmt.Errorf("model %s: DFF/BytesPerParam/Experts must be positive", c.Name)
	case c.RoPE && c.HeadDim()%2 != 0:
		return fmt.Errorf("model %s: RoPE requires an even head dimension, got %d", c.Name, c.HeadDim())
	}
	if err := c.Quant.Validate(); err != nil {
		return fmt.Errorf("model %s: %w", c.Name, err)
	}
	return nil
}

// HeadDim returns d_h = d_model / n_h.
func (c Config) HeadDim() int { return c.DModel / c.Heads }

// KVDim is the width of the K (or V) projection output — d_h · KV heads,
// smaller than DModel under grouped-query attention.
func (c Config) KVDim() int { return c.HeadDim() * c.KVHeads }

// elem is the byte width of one value.
func (c Config) elem() int { return c.BytesPerParam }

// The model catalog. OPT dimensions follow Zhang et al. (2022); the three
// §7.7 generalizability models follow their respective papers.
var (
	// OPT6B7 is OPT-6.7B, small enough to fit one GPU — handy in tests.
	OPT6B7 = Config{Name: "OPT-6.7B", Layers: 32, DModel: 4096, Heads: 32, KVHeads: 32, DFF: 16384, VocabSize: 50272, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 1}
	// OPT13B is OPT-13B.
	OPT13B = Config{Name: "OPT-13B", Layers: 40, DModel: 5120, Heads: 40, KVHeads: 40, DFF: 20480, VocabSize: 50272, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 1}
	// OPT30B is OPT-30B (evaluated on SPR-A100).
	OPT30B = Config{Name: "OPT-30B", Layers: 48, DModel: 7168, Heads: 56, KVHeads: 56, DFF: 28672, VocabSize: 50272, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 1}
	// OPT66B is OPT-66B (evaluated on SPR-H100).
	OPT66B = Config{Name: "OPT-66B", Layers: 64, DModel: 9216, Heads: 72, KVHeads: 72, DFF: 36864, VocabSize: 50272, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 1}
	// OPT175B is the paper's flagship benchmark.
	OPT175B = Config{Name: "OPT-175B", Layers: 96, DModel: 12288, Heads: 96, KVHeads: 96, DFF: 49152, VocabSize: 50272, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 1}
	// Llama270B uses grouped-query attention and a gated FFN (§7.7, §7.9).
	Llama270B = Config{Name: "Llama2-70B", Layers: 80, DModel: 8192, Heads: 64, KVHeads: 8, DFF: 28672, VocabSize: 32000, MaxSeqLen: 4096, BytesPerParam: 2, GatedFFN: true, RoPE: true, Experts: 1}
	// Chinchilla70B is DeepMind's compute-optimal 70B model (§7.7).
	Chinchilla70B = Config{Name: "Chinchilla-70B", Layers: 80, DModel: 8192, Heads: 64, KVHeads: 64, DFF: 32768, VocabSize: 32000, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 1}
	// Bloom176B is BigScience's multilingual 176B model (§7.7).
	Bloom176B = Config{Name: "Bloom-176B", Layers: 70, DModel: 14336, Heads: 112, KVHeads: 112, DFF: 57344, VocabSize: 250880, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 1}
	// MoE16x is a Switch-style 16-expert variant of OPT-30B used for
	// §7.1's adaptability analysis: FFN parameters grow 16× while active
	// FLOPs stay constant, collapsing FC1/FC2's ops-per-byte.
	MoE16x = Config{Name: "MoE-16x-30B", Layers: 48, DModel: 7168, Heads: 56, KVHeads: 56, DFF: 28672, VocabSize: 50272, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 16}
	// Falcon40B uses 8-group GQA at an unusually high head count.
	Falcon40B = Config{Name: "Falcon-40B", Layers: 60, DModel: 8192, Heads: 128, KVHeads: 8, DFF: 32768, VocabSize: 65024, MaxSeqLen: 2048, BytesPerParam: 2, Experts: 1}
	// Mistral7B is a small gated-FFN GQA model that fits a single GPU —
	// the regime where offloading is unnecessary (a useful control).
	Mistral7B = Config{Name: "Mistral-7B", Layers: 32, DModel: 4096, Heads: 32, KVHeads: 8, DFF: 14336, VocabSize: 32000, MaxSeqLen: 4096, BytesPerParam: 2, GatedFFN: true, RoPE: true, Experts: 1}
)

// Int8Variant returns the model with 1-byte parameters — the INT8
// post-training-quantized deployment. Every Table 1 operand size, the KV
// cache, and the parameter footprint halve; FLOP counts are unchanged
// (the analytical model conservatively keeps BF16-class throughput).
func (c Config) Int8Variant() Config {
	out := c
	out.Name = c.Name + "-int8"
	out.BytesPerParam = 1
	return out
}

// SparseVariant returns the model under the block-sparse compute tier at
// the given zero tile-block fraction: parameter bytes and parameter-
// sublayer FLOPs both scale by the nonzero fraction (the kernel skips
// zero blocks' TileLoads and TDP — cycles ∝ nonzero blocks), while
// activations and KV cache stay BF16. The smaller layer footprint is
// what memplan turns into more pinned layers and bigger KV budgets.
// It is a test oracle: the model, memplan, engine and offload tests
// build the sparse tier's analytic model with it, and no program does.
func (c Config) SparseVariant(blockSparsity float64) Config {
	out := c
	out.Name = fmt.Sprintf("%s-sparse%.0f", c.Name, 100*blockSparsity)
	out.Quant = QuantSpec{Policy: QuantSparse, BlockSparsity: blockSparsity}
	return out
}

// Int4LUTVariant returns the model under the INT4 LUT-GEMV compute tier
// with the given quantization group length (0 = 128): parameter bytes
// shrink to 0.5 + 2/group per weight while FLOPs are priced unchanged.
// It is a test oracle: the model, memplan, engine and offload tests
// build the INT4 tier's analytic model with it, and no program does.
func (c Config) Int4LUTVariant(group int) Config {
	out := c
	out.Name = c.Name + "-int4lut"
	out.Quant = QuantSpec{Policy: QuantINT4LUT, Group: group}
	return out
}

// Catalog lists every built-in model.
func Catalog() []Config {
	return []Config{OPT6B7, OPT13B, OPT30B, OPT66B, OPT175B, Llama270B, Chinchilla70B, Bloom176B, MoE16x, Falcon40B, Mistral7B}
}

// ByName returns the catalog model with the given name.
func ByName(name string) (Config, error) {
	for _, c := range Catalog() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown model %q", name)
}

// ffnFC1Width returns FC1's effective output width in elements (doubled
// for gated FFNs, which fuse the gate and up projections).
func (c Config) ffnFC1Width() int {
	if c.GatedFFN {
		return 2 * c.DFF
	}
	return c.DFF
}

// DataX returns D_X, the byte size of a sublayer's first (activation)
// operand, per Table 1.
func (c Config) DataX(stage Stage, s Sublayer, b, l int) units.Bytes {
	rows := b * l
	if stage == Decode {
		rows = b
	}
	e := c.elem()
	switch s {
	case QKVMapping, QKT, OutProjection, FC1:
		return units.Bytes(e * rows * c.DModel)
	case SV:
		// Table 1 counts the attention-probability operand at the hidden
		// width (scores for the active tokens).
		return units.Bytes(e * rows * c.DModel)
	case FC2:
		return units.Bytes(e * rows * c.ffnFC1Width())
	default:
		return 0
	}
}

// scaleParamBytes applies the quant tier's compression to a dense
// parameter-operand byte count.
func (c Config) scaleParamBytes(b units.Bytes) units.Bytes {
	scale := c.Quant.paramByteScale(c.elem())
	if scale == 1 {
		return b
	}
	return units.Bytes(float64(b) * scale)
}

// DataY returns D_Y, the byte size of a sublayer's second operand
// (parameters, or KV cache for the attention-scoring sublayers), per
// Table 1. l is the *total* context length (input tokens so far) — during
// decode the KV cache spans it. Parameter operands shrink under the
// Quant tier; the KV-cache operands of QKT/SV never do.
func (c Config) DataY(stage Stage, s Sublayer, b, l int) units.Bytes {
	e := c.elem()
	d := c.DModel
	switch s {
	case QKVMapping:
		// d×d query projection plus two d×kv projections.
		return c.scaleParamBytes(units.Bytes(e * (d*d + 2*d*c.KVDim())))
	case QKT, SV:
		// K (or V): one of the two KV-cache halves, unique per batch item.
		return units.Bytes(e * b * l * c.KVDim())
	case OutProjection:
		return c.scaleParamBytes(units.Bytes(e * d * d))
	case FC1:
		return c.scaleParamBytes(units.Bytes(e * d * c.ffnFC1Width() * c.Experts))
	case FC2:
		return c.scaleParamBytes(units.Bytes(e * c.DFF * d * c.Experts))
	default:
		return 0
	}
}

// Compute returns C, the FLOP count of a sublayer, per Table 1. l is the
// input length during prefill and the current context length during
// decode.
func (c Config) Compute(stage Stage, s Sublayer, b, l int) units.FLOPs {
	rows := b * l
	if stage == Decode {
		rows = b
	}
	d := c.DModel
	// The sparse tier skips zero blocks' work outright, so parameter-
	// sublayer FLOPs scale with the nonzero fraction (attention scoring
	// against the BF16 KV cache is never compressed).
	scale := func(f units.FLOPs) units.FLOPs {
		if s := c.Quant.paramFLOPScale(); s != 1 {
			return units.FLOPs(float64(f) * s)
		}
		return f
	}
	switch s {
	case QKVMapping:
		return scale(units.FLOPs(2 * rows * d * (d + 2*c.KVDim())))
	case QKT, SV:
		// Prefill: 2·B·L²·d; decode: 2·B·L·d (per Table 1). Attention
		// scoring always spans the full context per query row.
		return units.FLOPs(2 * rows * l * d)
	case OutProjection:
		return scale(units.FLOPs(2 * rows * d * d))
	case FC1:
		return scale(units.FLOPs(2 * rows * d * c.ffnFC1Width()))
	case FC2:
		return scale(units.FLOPs(2 * rows * c.DFF * d))
	default:
		return 0
	}
}

// OpsPerByte returns the sublayer's arithmetic intensity C/(D_X+D_Y),
// the quantity Figure 1's heatmap plots.
func (c Config) OpsPerByte(stage Stage, s Sublayer, b, l int) float64 {
	return units.OpsPerByte(c.Compute(stage, s, b, l), c.DataX(stage, s, b, l)+c.DataY(stage, s, b, l))
}

// KVBytes returns the KV-cache footprint for a batch of b sequences of
// context length l across all layers.
func (c Config) KVBytes(b, l int) units.Bytes {
	perLayer := units.Bytes(2 * c.elem() * b * l * c.KVDim()) // K and V
	return perLayer * units.Bytes(c.Layers)
}

// KVBytesPerLayer returns one layer's KV-cache footprint — D_KV in
// Eq. (9), the store cost when sublayer 1 runs on the GPU but the cache
// lives in CPU memory.
func (c Config) KVBytesPerLayer(b, l int) units.Bytes {
	return units.Bytes(2 * c.elem() * b * l * c.KVDim())
}

// LayerParamBytes returns one decoder layer's parameter footprint
// (24·d_m² bytes for dense OPT models — e.g. ~1.2 GB for OPT-30B, the
// Optimization-1 granularity). Compressed tiers (Quant) shrink it, which
// is exactly what lets PlanLIAGPU pin more layers and PlanHost budget
// more KV; the embedding table (ParamBytes) stays dense under every tier.
func (c Config) LayerParamBytes() units.Bytes {
	var sum units.Bytes
	for _, s := range Sublayers() {
		if s == QKT || s == SV {
			continue // KV cache, not parameters
		}
		sum += c.DataY(Prefill, s, 1, 1)
	}
	return sum
}

// ParamBytes returns the whole model's parameter footprint including the
// embedding table and LM head.
func (c Config) ParamBytes() units.Bytes {
	embed := units.Bytes(2 * c.elem() * c.VocabSize * c.DModel) // embedding + tied LM head
	return c.LayerParamBytes()*units.Bytes(c.Layers) + embed
}

// ActivationBytes returns the transient per-layer activation working set
// for a batch of b rows (hidden states at model and FFN width).
func (c Config) ActivationBytes(b, l int, stage Stage) units.Bytes {
	rows := b * l
	if stage == Decode {
		rows = b
	}
	return units.Bytes(c.elem() * rows * (c.DModel + c.ffnFC1Width()))
}

// HeatmapCell is one entry of Figure 1's ops/byte heatmap.
type HeatmapCell struct {
	// Stage is prefill or decode.
	Stage Stage
	// Sublayer is the decoder sublayer.
	Sublayer Sublayer
	// OpsPerByte is the arithmetic intensity.
	OpsPerByte float64
}

// OpsByteHeatmap reproduces Figure 1: the ops/byte of all twelve
// stage × sublayer combinations for the given batch size and input length.
func (c Config) OpsByteHeatmap(b, l int) []HeatmapCell {
	var cells []HeatmapCell
	for _, stage := range []Stage{Prefill, Decode} {
		for _, s := range Sublayers() {
			cells = append(cells, HeatmapCell{
				Stage:      stage,
				Sublayer:   s,
				OpsPerByte: c.OpsPerByte(stage, s, b, l),
			})
		}
	}
	return cells
}
