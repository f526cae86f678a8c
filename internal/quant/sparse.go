package quant

import (
	"sort"

	"github.com/lia-sim/lia/internal/amx"
	"github.com/lia-sim/lia/internal/tensor"
)

// Block-magnitude pruning for the sparse AMX tier. The tile drivers can
// only skip whole (blockK×blockN) tile blocks of the right-hand operand,
// so pruning happens at exactly that granularity: rank every block by its
// squared magnitude and zero the smallest ones until the requested
// fraction of blocks is gone. The pruned matrix is then prepacked with
// amx.PrepackBF16Sparse, whose bitmap turns every zeroed block into
// skipped TileLoads + TDP.

// SparseStats reports what PruneBlocks removed.
type SparseStats struct {
	// ZeroBlocks and TotalBlocks count tile blocks after pruning
	// (ZeroBlocks includes blocks that were already all zero).
	ZeroBlocks, TotalBlocks int
}

// Sparsity returns the zeroed-block fraction. It is a test oracle: the
// quant and engine tests read it, and no program calls it.
func (s SparseStats) Sparsity() float64 {
	if s.TotalBlocks == 0 {
		return 0
	}
	return float64(s.ZeroBlocks) / float64(s.TotalBlocks)
}

// PruneBlocks returns a copy of w (K×N) with its lowest-magnitude tile
// blocks zeroed so that at least the given fraction of blocks is zero
// (blocks that are already zero count toward the target). sparsity is
// clamped to [0, 1]; the block shape is the BF16 tile granularity the
// sparse kernel skips at.
func PruneBlocks(w tensor.Matrix, sparsity float64) (tensor.Matrix, SparseStats) {
	bk, bn := amx.BlockShapeBF16()
	return pruneBlocksAt(w, sparsity, bk, bn)
}

// PruneBlocksINT8 prunes at the INT8 tile granularity — the block shape
// the TDPBUSD zero-block bitmap skips at — so that quantizing the pruned
// matrix and prepacking it sparse skips exactly the pruned blocks.
func PruneBlocksINT8(w tensor.Matrix, sparsity float64) (tensor.Matrix, SparseStats) {
	bk, bn := amx.BlockShapeINT8()
	return pruneBlocksAt(w, sparsity, bk, bn)
}

// pruneBlocksAt is the shared magnitude-pruning body, parameterized by
// the kernel's skippable block shape.
func pruneBlocksAt(w tensor.Matrix, sparsity float64, bk, bn int) (tensor.Matrix, SparseStats) {
	if sparsity < 0 {
		sparsity = 0
	}
	if sparsity > 1 {
		sparsity = 1
	}
	kBlocks := (w.Rows + bk - 1) / bk
	nBlocks := (w.Cols + bn - 1) / bn
	total := kBlocks * nBlocks
	type blockNorm struct {
		kb, nb int
		norm   float64
	}
	norms := make([]blockNorm, 0, total)
	for kb := 0; kb < kBlocks; kb++ {
		for nb := 0; nb < nBlocks; nb++ {
			var sum float64
			for r := kb * bk; r < (kb+1)*bk && r < w.Rows; r++ {
				for c := nb * bn; c < (nb+1)*bn && c < w.Cols; c++ {
					v := float64(w.At(r, c))
					sum += v * v
				}
			}
			norms = append(norms, blockNorm{kb, nb, sum})
		}
	}
	sort.SliceStable(norms, func(i, j int) bool { return norms[i].norm < norms[j].norm })

	out := w.Clone()
	target := int(sparsity * float64(total))
	zeroed := 0
	for _, b := range norms {
		if zeroed >= target && b.norm != 0 {
			break
		}
		for r := b.kb * bk; r < (b.kb+1)*bk && r < w.Rows; r++ {
			row := out.Row(r)
			for c := b.nb * bn; c < (b.nb+1)*bn && c < w.Cols; c++ {
				row[c] = 0
			}
		}
		zeroed++
	}
	return out, SparseStats{ZeroBlocks: zeroed, TotalBlocks: total}
}

// SparseFootprint models the bytes a block-sparse BF16 encoding ships
// for a K×N weight with the given zero-block stats: the nonzero blocks'
// bf16 payload plus one bitmap bit per block. (The functional runtime
// keeps the full image resident for simplicity; the planning layers
// price the compressed form, which is what a production encoding moves.)
func SparseFootprint(k, n int, st SparseStats) int {
	if st.TotalBlocks == 0 {
		return 2 * k * n
	}
	nz := st.TotalBlocks - st.ZeroBlocks
	payload := 2 * k * n * nz / st.TotalBlocks
	return payload + (st.TotalBlocks+7)/8
}
