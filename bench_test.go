// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Run them all with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigure*/BenchmarkTable* iteration produces the complete
// table/figure, so ns/op reports how long the experiment takes to
// regenerate; the b.N=1 outputs of cmd/lia-bench are the human-readable
// form. Micro-benchmarks of the core primitives (AMX tile matmul, the
// 64-policy optimizer, the overlapped scheduler, the functional
// transformer) follow.
package lia_test

import (
	"context"
	"testing"

	"github.com/lia-sim/lia"
	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/engine"
	"github.com/lia-sim/lia/internal/exec"
	"github.com/lia-sim/lia/internal/experiments"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/quant"
	"github.com/lia-sim/lia/internal/tensor"
	"github.com/lia-sim/lia/internal/trace"
	"github.com/lia-sim/lia/internal/units"
)

// sink prevents dead-code elimination of benchmark results.
var sink any

func BenchmarkFigure1OpsPerByte(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Figure1()
	}
}

func BenchmarkFigure3TransferBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Figure3()
	}
}

func BenchmarkFigure4ComputeOffload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Figure4()
	}
}

func BenchmarkFigure5Microbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gemm, gemv := experiments.Figure5()
		sink = [2]any{gemm, gemv}
	}
}

func BenchmarkFigure8CXLCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fa, fb := experiments.Figure8()
		sink = [2]any{fa, fb}
	}
}

func BenchmarkFigure9PolicyMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pre, dec := experiments.Figure9(hw.SPRA100)
		sink = [2]any{pre, dec}
	}
}

func BenchmarkFigure10OnlineLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Figure10()
	}
}

func BenchmarkFigure11OfflineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Figure11()
	}
}

func BenchmarkFigure12Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Figure12()
	}
}

func BenchmarkFigure13GNRvsH100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, off := experiments.Figure13()
		sink = [2]any{on, off}
	}
}

func BenchmarkFigure14MultiGPUCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tput, cost := experiments.Figure14()
		sink = [2]any{tput, cost}
	}
}

func BenchmarkFigure15PowerInfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, off := experiments.Figure15()
		sink = [2]any{on, off}
	}
}

func BenchmarkTable1Formulas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Table1(180, 512)
	}
}

func BenchmarkTable3CXLOffloading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Table3()
	}
}

func BenchmarkTable4Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Table4()
	}
}

func BenchmarkTable5Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Table5()
	}
}

func BenchmarkTable6GNRScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Table6()
	}
}

func BenchmarkGeneralizability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.Generalizability()
	}
}

func BenchmarkDiscussion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = [3]any{experiments.GraceHopper(), experiments.CheaperGPUs(), experiments.CXLCostSavings()}
	}
}

// --- primitive micro-benchmarks -------------------------------------

// BenchmarkPolicyOptimizer measures one Eq. (1) solve: evaluating all 64
// offloading vectors for a decoder layer.
func BenchmarkPolicyOptimizer(b *testing.B) {
	env := core.NewEnv(hw.SPRA100, model.OPT175B)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, t := core.Optimize(env, model.Decode, 64, 512)
		sink = [2]any{p, t}
	}
}

// BenchmarkEngineOnline measures one full online estimate (prefill +
// 32-token decode) through the overlapped scheduler.
func BenchmarkEngineOnline(b *testing.B) {
	cfg := engine.Config{
		Framework: engine.LIA,
		System:    hw.SPRA100,
		Model:     model.OPT30B,
		Workload:  trace.Workload{Batch: 1, InputLen: 512, OutputLen: 32},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := engine.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = r
	}
}

// BenchmarkEngineColdCell measures one uncached engine.Run of the
// flagship what-if cell (LIA, OPT-175B on SPR-A100, B=1, 512→32): policy
// selection, prefill, and the 32-step decode sequence.
//
// BenchmarkExecDecodeSequence is that cell's decode sequence alone: 32
// steps over a 96-layer plan. Before stages were compiled every step
// rebuilt a named 288-task schedule; now the graph is built once and each
// step is two cost evaluations, 288 duration writes and one run.
//
// Reference guest (2 vCPUs, go1.24, -benchtime 200x -count 5, medians, both
// sides in one session), parent commit 0f5c0ea → this change:
//
//	BenchmarkEngineColdCell      14.66 ms, 4.51 MB, 30,100 allocs → 0.506 ms, 145 kB, 63 allocs
//	BenchmarkExecDecodeSequence  10.52 ms, 3.52 MB, 23,491 allocs → 0.206 ms,  18 kB,  8 allocs
//	BenchmarkEngineOnline         6.95 ms, 2.21 MB, 16,077 allocs → 0.364 ms,  75 kB, 63 allocs
func BenchmarkEngineColdCell(b *testing.B) {
	cfg := engine.Config{
		Framework:          engine.LIA,
		System:             hw.SPRA100,
		Model:              model.OPT175B,
		Workload:           trace.Workload{Batch: 1, InputLen: 512, OutputLen: 32},
		AssumeHostCapacity: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := engine.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = r
	}
}

func BenchmarkExecDecodeSequence(b *testing.B) {
	plan := exec.Plan{
		Env:         core.NewEnv(hw.SPRA100, model.OPT175B),
		Policy:      core.PartialCPU,
		Layers:      model.OPT175B.Layers,
		Overlap:     true,
		MiniBatches: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := plan.RunDecodeSequence(1, 512, 32)
		if err != nil {
			b.Fatal(err)
		}
		sink = r
	}
}

// BenchmarkAMXMatmul measures the BF16 tile pipeline on a 128³ GEMM
// whose right-hand operand is packed on every call — what a caller that
// does not keep the prepacked image pays; BenchmarkAMXMatmulPacked is the
// same product with the image reused.
func BenchmarkAMXMatmul(b *testing.B) {
	const n = 128
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) - 3
		bb[i] = float32(i%5) - 2
	}
	b.ReportAllocs()
	b.SetBytes(int64(3 * n * n * 4))
	for i := 0; i < b.N; i++ {
		w, err := amx.PrepackBF16(bb, n, n)
		if err != nil {
			b.Fatal(err)
		}
		c := make([]float32, n*n)
		_, err = amx.MatmulBF16PackedInto(c, a, n, w)
		if err != nil {
			b.Fatal(err)
		}
		sink = c
	}
}

// BenchmarkAMXMatmulPacked measures the same 128³ GEMM with the
// right-hand operand prepacked once — the steady-state weight path the
// functional executor runs.
func BenchmarkAMXMatmulPacked(b *testing.B) {
	const n = 128
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) - 3
		bb[i] = float32(i%5) - 2
	}
	pre, err := amx.PrepackBF16(bb, n, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(3 * n * n * 4))
	for i := 0; i < b.N; i++ {
		c := make([]float32, n*n)
		if _, err := amx.MatmulBF16PackedInto(c, a, n, pre); err != nil {
			b.Fatal(err)
		}
		sink = c
	}
}

// BenchmarkAMXMatmulSparse measures the 128³ GEMM with the right-hand
// operand pruned to 50% tile-block sparsity and prepacked with the
// zero-block bitmap — the compressed-tier CPU path. The ratio against
// BenchmarkAMXMatmulPacked is the skip win at this sparsity.
func BenchmarkAMXMatmulSparse(b *testing.B) {
	const n = 128
	a := make([]float32, n*n)
	w := tensor.New(n, n)
	for i := range a {
		a[i] = float32(i%7) - 3
		w.Data[i] = float32(i%5) - 2
	}
	pruned, _ := quant.PruneBlocks(w, 0.5)
	pre, err := amx.PrepackBF16Sparse(pruned.Data, n, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(3 * n * n * 4))
	for i := 0; i < b.N; i++ {
		c := make([]float32, n*n)
		if _, err := amx.MatmulBF16PackedInto(c, a, n, pre); err != nil {
			b.Fatal(err)
		}
		sink = c
	}
}

// BenchmarkINT4LUTGEMV measures a single-row 128→128 projection through
// the INT4 LUT-GEMV kernel — the decode-path shape the tier serves.
func BenchmarkINT4LUTGEMV(b *testing.B) {
	const n = 128
	w := tensor.New(n, n)
	for i := range w.Data {
		w.Data[i] = float32(i%5) - 2
	}
	q, err := quant.QuantizeINT4(w, 0)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(1, n)
	for j := range x.Data {
		x.Data[j] = float32(j%7) - 3
	}
	b.ReportAllocs()
	b.SetBytes(int64(n*4 + q.Bytes() + n*4))
	for i := 0; i < b.N; i++ {
		c := tensor.New(1, n)
		if _, err := quant.LinearINT4LUT(c, x, q); err != nil {
			b.Fatal(err)
		}
		sink = c.Data
	}
}

// BenchmarkAMXMatmulINT8Packed is the TDPBUSD mirror of
// BenchmarkAMXMatmulPacked.
func BenchmarkAMXMatmulINT8Packed(b *testing.B) {
	const n = 128
	a := make([]uint8, n*n)
	bb := make([]int8, n*n)
	for i := range a {
		a[i] = uint8(i)
		bb[i] = int8(i % 127)
	}
	pre, err := amx.PrepackINT8(bb, n, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(2*n*n + n*n*4))
	for i := 0; i < b.N; i++ {
		c, _, err := amx.MatmulINT8Packed(a, n, pre)
		if err != nil {
			b.Fatal(err)
		}
		sink = c
	}
}

// BenchmarkAMXMatmulSparseINT8 is the TDPBUSD mirror of
// BenchmarkAMXMatmulSparse: the same 128³ GEMM with the int8 weight
// operand zeroed to 50% tile-block sparsity and prepacked with the
// zero-block bitmap, so half the TileLoad+TDPBUSD pairs never enter the
// pipeline. The ratio against BenchmarkAMXMatmulINT8Packed is the
// sparse-int8 tier's skip win at this sparsity.
func BenchmarkAMXMatmulSparseINT8(b *testing.B) {
	const n = 128
	a := make([]uint8, n*n)
	bb := make([]int8, n*n)
	for i := range a {
		a[i] = uint8(i)
		bb[i] = int8(i % 127)
	}
	// Zero alternating weight blocks at the INT8 skip granularity.
	bk, bn := amx.BlockShapeINT8()
	for bi := 0; bi < n/bk; bi++ {
		for bj := 0; bj < n/bn; bj++ {
			if (bi+bj)%2 != 0 {
				continue
			}
			for r := bi * bk; r < (bi+1)*bk; r++ {
				for c := bj * bn; c < (bj+1)*bn; c++ {
					bb[r*n+c] = 0
				}
			}
		}
	}
	pre, err := amx.PrepackINT8Sparse(bb, n, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(2*n*n + n*n*4))
	for i := 0; i < b.N; i++ {
		c, _, err := amx.MatmulINT8Packed(a, n, pre)
		if err != nil {
			b.Fatal(err)
		}
		sink = c
	}
}

// BenchmarkFunctionalGenerateBatch measures an 8-sequence batch decoded
// in parallel on the runner pool with shared packed-weight caches.
func BenchmarkFunctionalGenerateBatch(b *testing.B) {
	m, err := lia.NewFunctionalModel(lia.TinyModelConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	exe := lia.NewFunctionalExecutor(m, lia.PartialCPU)
	prompts := make([][]int, 8)
	for i := range prompts {
		prompts[i] = []int{1 + i, 2 + i, 3 + i}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := exe.GenerateBatch(prompts, 16)
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

// BenchmarkFunctionalDecodeStep measures one decode step of the tiny
// functional transformer under the partial-offload policy.
func BenchmarkFunctionalDecodeStep(b *testing.B) {
	m, err := lia.NewFunctionalModel(lia.TinyModelConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	exe := lia.NewFunctionalExecutor(m, lia.PartialCPU)
	_, cache, err := exe.Prefill([]int{1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		logits, err := exe.DecodeStep(cache, 5)
		if err != nil {
			b.Fatal(err)
		}
		sink = logits
		if cache.Len() > 100 {
			_, cache, _ = exe.Prefill([]int{1, 2, 3, 4})
		}
	}
}

// BenchmarkSpecDecode measures draft-and-verify speculative decoding of
// a low-entropy (draft-friendly) prompt: a 1-layer shared-weight draft
// proposes γ=3 tokens per round and the target scores them in one
// multi-row VerifyStep pass. Output is bit-identical to plain Generate.
func BenchmarkSpecDecode(b *testing.B) {
	m, err := lia.NewFunctionalModel(lia.TinyModelConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	exe := lia.NewFunctionalExecutor(m, lia.PartialCPU)
	dm, err := lia.NewDraftModel(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	draft := lia.NewFunctionalExecutor(dm, lia.PartialCPU)
	gen, err := trace.NewLowEntropyGenerator(trace.LowEntropySpec{
		Vocab: lia.TinyModelConfig().VocabSize, HotTokens: 4, RepeatProb: 0.8,
		MinLen: 16, MaxLen: 16,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	prompt := gen.Next().Prompt
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, stats, err := exe.SpecGenerate(prompt, 32, draft, 3)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Rounds == 0 {
			b.Fatal("speculative loop never ran a verify round")
		}
		sink = out
	}
}

// BenchmarkChunkedPrefill measures a long prompt prefilled in 8-token
// chunks (the gateway's decode-interleaved TTFT path) followed by a
// short decode, end to end.
func BenchmarkChunkedPrefill(b *testing.B) {
	m, err := lia.NewFunctionalModel(lia.TinyModelConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	exe := lia.NewFunctionalExecutor(m, lia.PartialCPU)
	prompt := make([]int, 96)
	for i := range prompt {
		prompt[i] = 1 + (i*7)%100
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := exe.NewSequenceChunked(prompt, 4, 8, nil)
		if err != nil {
			b.Fatal(err)
		}
		for s.Prefilling() {
			if _, err := s.AdvancePrefill(); err != nil {
				b.Fatal(err)
			}
		}
		for !s.Done() {
			if _, err := s.Step(); err != nil {
				b.Fatal(err)
			}
		}
		sink = s.Output()
		s.Release()
	}
}

// BenchmarkBatchedDecodeRound measures one cross-sequence fused decode
// round: 8 sequences advanced by StepBatchFused, which stacks the four
// parameter sublayers of the whole batch into one GEMM each.
func BenchmarkBatchedDecodeRound(b *testing.B) {
	m, err := lia.NewFunctionalModel(lia.TinyModelConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	exe := lia.NewFunctionalExecutor(m, lia.PartialCPU)
	build := func() []*lia.FunctionalSequence {
		seqs := make([]*lia.FunctionalSequence, 8)
		for i := range seqs {
			s, err := exe.NewSequence([]int{1 + i, 2 + i, 3 + i}, 120)
			if err != nil {
				b.Fatal(err)
			}
			seqs[i] = s
		}
		return seqs
	}
	seqs := build()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if seqs[0].Done() {
			for _, s := range seqs {
				s.Release()
			}
			seqs = build()
		}
		if err := exe.StepBatchFused(ctx, seqs); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range seqs {
		s.Release()
	}
}

func BenchmarkModelingAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.ModelingAblations()
	}
}

func BenchmarkQuantizationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.QuantizationStudy()
	}
}

func BenchmarkMultiGPUScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.MultiGPUScaling()
	}
}

// BenchmarkAMXMatmulINT8 measures the emulated TDPBUSD pipeline on a
// 128³ product whose right-hand operand is packed on every call — what a
// caller that does not keep the prepacked image pays;
// BenchmarkAMXMatmulINT8Packed is the same product with the image reused.
func BenchmarkAMXMatmulINT8(b *testing.B) {
	const n = 128
	a := make([]uint8, n*n)
	bb := make([]int8, n*n)
	for i := range a {
		a[i] = uint8(i)
		bb[i] = int8(i % 127)
	}
	b.ReportAllocs()
	b.SetBytes(int64(2*n*n + n*n*4))
	for i := 0; i < b.N; i++ {
		w, err := amx.PrepackINT8(bb, n, n)
		if err != nil {
			b.Fatal(err)
		}
		c, _, err := amx.MatmulINT8Packed(a, n, w)
		if err != nil {
			b.Fatal(err)
		}
		sink = c
	}
}

// BenchmarkServing measures one serving simulation of 32 requests.
func BenchmarkServing(b *testing.B) {
	gen, err := lia.NewTraceGenerator(lia.TraceCode, 32, 512, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := lia.PoissonArrivals(gen, 32, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := lia.ServeConfig{
		System: lia.SPRA100, Model: lia.OPT30B, Framework: lia.LIA,
		MaxBatch: 8, MaxWait: 2, AssumeHostCapacity: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := lia.Serve(cfg, reqs)
		if err != nil {
			b.Fatal(err)
		}
		sink = m
	}
}

func BenchmarkSpeculativeDecoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.SpeculativeDecoding()
	}
}

func BenchmarkStorageTiers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.StorageTiers()
	}
}

func BenchmarkParallelismComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.ParallelismComparison()
	}
}

func BenchmarkMoEAdaptability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiments.MoEAdaptability()
	}
}

// BenchmarkTokenizerEncode measures BPE encoding of a ~200-byte string.
func BenchmarkTokenizerEncode(b *testing.B) {
	tok, err := lia.TrainTokenizer(`the quick brown fox jumps over the lazy dog.
large language models generate tokens one at a time. the key value cache
grows with the sequence. parameters stream over the interconnect.`, 384)
	if err != nil {
		b.Fatal(err)
	}
	s := "the lazy language model streams parameters over the interconnect one token at a time"
	b.ReportAllocs()
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		sink = tok.Encode(s)
	}
}

// BenchmarkKVPageChurn measures allocator throughput under an
// admit/extend/release churn typical of continuous batching.
func BenchmarkKVPageChurn(b *testing.B) {
	mgr, err := kvpage.ForModel(200*units.GB, 16, model.OPT30B)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := i
		if err := mgr.Admit(id, 300); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			if err := mgr.Extend(id); err != nil {
				b.Fatal(err)
			}
		}
		if err := mgr.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContinuousServing measures the iteration-level scheduler.
func BenchmarkContinuousServing(b *testing.B) {
	gen, err := lia.NewTraceGenerator(lia.TraceCode, 32, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := lia.PoissonArrivals(gen, 24, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := lia.ServeConfig{
		System: lia.SPRA100, Model: lia.OPT30B, Framework: lia.LIA,
		MaxBatch: 8, MaxWait: 2, AssumeHostCapacity: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := lia.ServeContinuous(cfg, reqs)
		if err != nil {
			b.Fatal(err)
		}
		sink = m
	}
}

func BenchmarkFigure7Overlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pre, dec := experiments.Figure7()
		sink = [2]any{pre, dec}
	}
}
