package lia

import (
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/token"
)

// Functional-engine types: a runnable transformer whose sublayers are
// routed through an emulated AMX tile pipeline (CPU-assigned) or dense
// kernels (GPU-assigned) according to an offloading policy.
type (
	// FunctionalModel holds a runnable transformer's weights.
	FunctionalModel = llm.Model
	// FunctionalExecutor runs a FunctionalModel under a Policy.
	FunctionalExecutor = llm.Executor
)

// TinyModelConfig returns a laptop-scale architecture with the OPT
// decoder structure, suitable for functional runs and tests.
func TinyModelConfig() ModelConfig { return llm.TinyConfig() }

// TinyLlamaConfig returns a laptop-scale architecture with Llama2's
// structural features — grouped-query attention and a SwiGLU gated FFN —
// for functional runs of the §7.7/§7.9 model family.
func TinyLlamaConfig() ModelConfig { return llm.TinyLlamaConfig() }

// NewFunctionalModel builds a runnable transformer with deterministic
// random weights (the paper's artifact uses dummy weights too, §A.5).
// Any ModelConfig works; keep dimensions laptop-scale — every multiply
// really executes.
func NewFunctionalModel(cfg ModelConfig, seed int64) (*FunctionalModel, error) {
	return llm.NewRandom(cfg, seed)
}

// NewFunctionalExecutor wires a functional model to an offloading policy.
// CPU-assigned sublayers execute through the AMX emulator (real tile
// loads and TDPBF16PS semantics); GPU-assigned ones through plain BF16
// GEMM. Generated tokens are identical for every policy.
func NewFunctionalExecutor(m *FunctionalModel, p Policy) *FunctionalExecutor {
	return llm.NewExecutor(m, p)
}

// Sublayer names re-exported for policy construction.
const (
	// QKVMapping, QKT, SV, OutProjection, FC1 and FC2 index the six
	// decoder sublayers of an offloading vector, in execution order.
	QKVMapping = model.QKVMapping
	QKT        = model.QKT
	SV         = model.SV
	OutProj    = model.OutProjection
	FC1        = model.FC1
	FC2        = model.FC2
)

// SaveModel writes a functional model to disk in the BF16 checkpoint
// container (about 2 bytes per parameter).
func SaveModel(path string, m *FunctionalModel) error {
	return llm.SaveCheckpointFile(path, m)
}

// LoadModel reads a checkpoint written by SaveModel.
func LoadModel(path string) (*FunctionalModel, error) {
	return llm.LoadCheckpointFile(path)
}

// FunctionalSequence is an in-flight generation on a FunctionalExecutor:
// cache-resumed decode via Step, chunked prefill via AdvancePrefill
// (NewSequenceChunked), speculative rounds via EnableSpec/SpecStep, and
// cross-sequence fused rounds via FunctionalExecutor.StepBatchFused. All
// of them, like the executor's Prefill, DecodeStep and VerifyStep, run
// the same one forward pass over per-sequence spans; they differ only in
// how many sequences share a pass and how many tokens each brings.
type FunctionalSequence = llm.Sequence

// SpecDecodeStats counts a speculative-decoding run's rounds, drafted,
// accepted and emitted tokens (see FunctionalExecutor.SpecGenerate).
type SpecDecodeStats = llm.SpecStats

// NewDraftModel derives a shallow draft from a target model: its first
// `layers` decoder layers wrapped in the target's own embeddings and
// final norm. The shared weights keep the draft's argmax surface
// correlated with the target's, which is what earns non-trivial
// speculative acceptance rates.
func NewDraftModel(m *FunctionalModel, layers int) (*FunctionalModel, error) {
	return llm.DraftModel(m, layers)
}

// Tokenizer is a byte-level BPE tokenizer — the text front-end ahead of
// the decoder stack.
type Tokenizer = token.Tokenizer

// TrainTokenizer learns a tokenizer from a corpus with at most vocabSize
// tokens (the first 256 are raw bytes, so round trips are lossless).
func TrainTokenizer(corpus string, vocabSize int) (*Tokenizer, error) {
	return token.Train(corpus, vocabSize)
}
