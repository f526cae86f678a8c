// A weight tier is a value. LIA's unit of decision is the sublayer —
// one GEMM whose cost depends on where it runs and in what format its
// weights arrive — so each (layer, parameter sublayer) holds one linearOp:
// its weights in the form their kernel consumes, plus how to multiply by
// them. Executor.linear is hook + lookup + call; which format serves is a
// property of the operand, not a second forward path.
package llm

import (
	"fmt"
	"sync"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/tensor"
)

// linearOp is one parameter sublayer's weights in one tier.
type linearOp interface {
	// apply computes x·W into dst, every element overwritten, on e — the
	// calling fork, whose policy routes the product and whose pass hooks
	// and Stats observe it — and returns dst, or an error when the shapes
	// do not fit the weight. x must be freshly computed by the caller (the
	// dense route rounds it to bfloat16 in place, exactly the rounding the
	// seed applied to a clone).
	apply(e *Executor, li int, s model.Sublayer, x, dst tensor.Matrix) (tensor.Matrix, error)
	// footprint is the serving footprint in bytes (see WeightFootprint).
	footprint() int64
	// blocks reports the (zero, total) tile blocks of the image the kernel
	// skips by; (0, 0) for formats with no bitmap.
	blocks() (zero, total int)
}

// Tier names, as QuantTier reports them.
const (
	tierDense      = "dense"
	tierSparse     = "sparse"
	tierINT8       = "int8"
	tierSparseINT8 = "sparse-int8"
	tierINT4       = "int4lut"
)

// tier is an executor family's active weight format: immutable once
// built, shared by every fork by pointer, replaced whole by Enable*.
type tier struct {
	name string
	// rowCoupled marks kernels whose rows within one span are coupled —
	// INT8's per-span activation scale spans all of a sequence's rows in
	// a pass — so one sequence's rows must not be split across passes:
	// prefix-seeded and chunked prefill and speculative verification fall
	// back without row independence. Rows of different spans stay
	// independent, so stacked decode rounds run on every tier.
	rowCoupled bool
	// ops is indexed [layer][sublayer]; the attention sublayers' slots
	// stay nil.
	ops [][model.NumSublayers]linearOp
}

// newTier builds every layer's four ops in model.Sublayers() order — QKV,
// out, FC1, FC2, an array and never a map range — so a tier's
// prune/quantize/prepack sequence is fixed.
func newTier(m *Model, name string, rowCoupled bool, build func(w tensor.Matrix) linearOp) *tier {
	t := &tier{name: name, rowCoupled: rowCoupled, ops: make([][model.NumSublayers]linearOp, len(m.Layers))}
	for li := range m.Layers {
		l := &m.Layers[li]
		for _, p := range [...]struct {
			s model.Sublayer
			w tensor.Matrix
		}{{model.QKVMapping, l.WQKV}, {model.OutProjection, l.WOut}, {model.FC1, l.WFC1}, {model.FC2, l.WFC2}} {
			t.ops[li][p.s] = build(p.w)
		}
	}
	return t
}

// each visits every op in layer, then sublayer order.
func (t *tier) each(fn func(linearOp)) {
	for li := range t.ops {
		for _, op := range t.ops[li] {
			if op != nil {
				fn(op)
			}
		}
	}
}

// denseOp is the BF16 tier's op: the weight matrix and its two
// static-layout conversions — the prepacked AMX operand (the VNNI tile
// image, plus the decoded column-major view amx's fast-path TMUL tier
// reads on hosts without the tile unit, built by one PrepackBF16 call)
// and the BF16-rounded copy for the dense (GPU) route (tensor.RoundedBF16,
// which proves it finite where it is, so FC2's ReLU zeros take the
// four-row body instead of the row-by-row skip). Each is built at
// most once per executor family, on the first pass that routes there —
// the per-weight cost a real AMX kernel amortizes — and is immutable
// afterwards, so batch sequences share it concurrently.
type denseOp struct {
	w       tensor.Matrix
	cpuOnce sync.Once
	cpu     *amx.Prepacked
	cpuErr  error
	gpuOnce sync.Once
	gpu     tensor.Operand
}

func newDenseOp(w tensor.Matrix) linearOp { return &denseOp{w: w} }

func (d *denseOp) apply(e *Executor, li int, s model.Sublayer, x, dst tensor.Matrix) (tensor.Matrix, error) {
	if e.Policy.OnCPU(s) {
		d.cpuOnce.Do(func() {
			if d.cpu, d.cpuErr = amx.PrepackBF16(d.w.Data, d.w.Rows, d.w.Cols); d.cpuErr == nil {
				e.weightPacked(li, s)
			}
		})
		if d.cpuErr != nil {
			return dst, fmt.Errorf("llm: prepack %s: %w", s, d.cpuErr)
		}
		return dst, e.tallyAMX(amx.MatmulBF16PackedInto(dst.Data, x.Data, x.Rows, d.cpu))
	}
	d.gpuOnce.Do(func() {
		d.gpu = tensor.RoundedBF16(d.w)
		e.weightPacked(li, s)
	})
	return e.denseBF16(s, x, d.gpu, dst)
}

// footprint prices the BF16 image a deployment ships: 2 bytes per element.
func (d *denseOp) footprint() int64 { return int64(2 * d.w.Rows * d.w.Cols) }

func (d *denseOp) blocks() (zero, total int) { return 0, 0 }

// weightPacked counts one static-weight layout conversion and tells the
// pass's memory host.
func (e *Executor) weightPacked(li int, s model.Sublayer) {
	e.shared.packs.Add(1)
	if e.pass != nil {
		e.pass.WeightPacked(li, s)
	}
}

// tallyAMX counts one BF16 product on the tile pipeline — the CPU route,
// x through the emulated tile pipeline against a prepacked (dense or
// sparse-bitmap) image or a KV-cache image — and its cycles, or returns
// the product's error: a shape that does not fit the weight.
func (e *Executor) tallyAMX(cycles uint64, err error) error {
	if err != nil {
		return fmt.Errorf("llm: AMX matmul: %w", err)
	}
	e.Stats.CPUMatmuls++
	e.Stats.AMXCycles += cycles
	return nil
}

// denseBF16 is the GPU route: x rounded to bfloat16 in place (the
// rounding a GPU tensor core applies) times a pre-rounded weight, into dst.
func (e *Executor) denseBF16(s model.Sublayer, x tensor.Matrix, w tensor.Operand, dst tensor.Matrix) (tensor.Matrix, error) {
	if x.Cols != w.Rows() || dst.Rows != x.Rows || dst.Cols != w.Cols() {
		return dst, fmt.Errorf("llm: %s matmul shape mismatch %dx%d · %dx%d into %dx%d",
			s, x.Rows, x.Cols, w.Rows(), w.Cols(), dst.Rows, dst.Cols)
	}
	return e.denseBF16Into(dst.Data, x, w), nil
}

// denseBF16Into is denseBF16 into out for an operand whose shape the
// caller guarantees: attention's route over a band of the KV cache, read
// in place.
func (e *Executor) denseBF16Into(out []float32, x tensor.Matrix, b tensor.Operand) tensor.Matrix {
	e.Stats.GPUMatmuls++
	amx.RoundSlice(x.Data)
	return tensor.MatMulInto(out, x, b)
}
