package amx

import (
	"sync"
	"sync/atomic"

	"github.com/lia-sim/lia/internal/team"
)

// This file is the execution layer shared by the blocked matmul drivers:
// the partition of a product's output grid into chunks for the process's
// worker team (internal/team), the emulated tile units those chunks run
// on, and pooled operand scratch. Spawning goroutines and allocating
// pack buffers per matmul call is exactly the per-iteration overhead a
// real AMX kernel amortizes away, so the steady state here does neither.

// workers is the team the drivers partition onto. Production code never
// reassigns it; tests pin other sizes.
var workers = team.Default()

const (
	// splitTileRows is team.SplitMACs in this package's unit: one row of
	// one BF16 tile block is blockN×blockK MACs, so a product splits only
	// when colBlocks × kBlocks × rows reaches 256 tile-rows. Decode-shaped
	// products of a tiny model (≈10 µs) stay inline; a fused round's
	// M ≤ 16 products on a real model use every core.
	splitTileRows = team.SplitMACs / (blockN * blockK)
	// chunkColBlocks is how many column blocks of one row block a worker
	// claims at a time: coarse enough that claiming is noise, fine enough
	// that a late helper still finds work.
	chunkColBlocks = 4
)

// splits reports whether a rowBlocks × colBlocks grid over m activation
// rows is worth partitioning: enough work, and more than one chunk.
func splits(m, rowBlocks, colBlocks, kBlocks int) bool {
	return colBlocks*kBlocks*m >= splitTileRows &&
		rowBlocks*ceilDiv(colBlocks, chunkColBlocks) > 1 && workers.Size() > 1
}

// pooledUnit is one emulated core's persistent state: a Unit, the
// last-installed tile palette (so reconfiguration only happens when the
// geometry changes), a C-tile staging buffer for the byte path, the
// flat C accumulators of the decoded and hardware kernels (float32 for
// BF16, int32 for INT8), and the hardware kernels' palette encoding and
// queued k-chain.
type pooledUnit struct {
	u     *Unit
	cfg   TileConfig
	cTile [MaxRows * MaxColBytes]byte
	cDecF [blockM * blockN]float32
	cDecI [blockM * blockN]int32
	// hwCfg is cfg encoded for LDTILECFG: the hardware kernel loads
	// exactly the palette its checks ran against.
	hwCfg hwTileCfg
	// hwOffs holds the (A, B) byte offsets of the current block's
	// validated k-blocks; it grows once per unit and is reused.
	hwOffs [][2]uintptr
}

// ensure installs cfg unless it is already the active palette.
func (w *pooledUnit) ensure(cfg TileConfig) error {
	if w.cfg == cfg {
		return nil
	}
	if err := w.u.Configure(cfg); err != nil {
		return err
	}
	w.cfg = cfg
	w.hwCfg = hwConfig(cfg)
	return nil
}

// units is the free list of tile units: whoever holds a chunk of a
// product — the caller or a team helper — takes one for the chunk and
// returns it. The list never shrinks (it is bounded by the most
// goroutines ever inside a kernel at once), so a unit pays its palette
// configure once in the process's life and steady-state cycle counts do
// not depend on when the garbage collector last ran.
var units struct {
	mu   sync.Mutex
	free []*pooledUnit
}

func getUnit() *pooledUnit {
	units.mu.Lock()
	if n := len(units.free); n > 0 {
		pu := units.free[n-1]
		units.free = units.free[:n-1]
		units.mu.Unlock()
		return pu
	}
	units.mu.Unlock()
	return &pooledUnit{u: NewUnit()}
}

func putUnit(pu *pooledUnit) {
	units.mu.Lock()
	units.free = append(units.free, pu)
	units.mu.Unlock()
}

// tiledCall is one partitioned product: the team hands out chunk
// indices, each chunk runs run over its column blocks on a unit of its
// own. Chunks write disjoint output columns, so who computes which
// cannot affect the product; cycle counts are summed and therefore
// partition-independent too.
type tiledCall struct {
	cfg          TileConfig
	run          func(pu *pooledUnit, rb, cbLo, cbHi int) error
	colBlocks    int
	chunksPerRow int

	cycles atomic.Uint64
	failed atomic.Bool
	mu     sync.Mutex
	errAt  int // chunk index of err
	err    error
}

// chunk runs one claimed chunk. A unit is taken — and its palette
// touched — only here, after the claim: a helper that wakes to a drained
// product does nothing and bills nothing.
func (t *tiledCall) chunk(i int) {
	if t.failed.Load() {
		return
	}
	pu := getUnit()
	start := pu.u.Cycles()
	err := pu.ensure(t.cfg)
	if err == nil {
		cbLo := i % t.chunksPerRow * chunkColBlocks
		err = t.run(pu, i/t.chunksPerRow, cbLo, min(cbLo+chunkColBlocks, t.colBlocks))
	}
	t.cycles.Add(pu.u.Cycles() - start)
	putUnit(pu)
	if err != nil {
		t.mu.Lock()
		if t.err == nil || i < t.errAt {
			t.errAt, t.err = i, err
		}
		t.mu.Unlock()
		t.failed.Store(true)
	}
}

// runTiled executes the rowBlocks × colBlocks grid under cfg on the
// team, returning the emulated cycles consumed and the failure of the
// lowest-numbered chunk that failed. Products that do not split (see
// splits) go through runInline instead.
func runTiled(cfg TileConfig, rowBlocks, colBlocks int, run func(pu *pooledUnit, rb, cbLo, cbHi int) error) (uint64, error) {
	t := &tiledCall{cfg: cfg, run: run, colBlocks: colBlocks, chunksPerRow: ceilDiv(colBlocks, chunkColBlocks)}
	workers.Run(rowBlocks*t.chunksPerRow, t.chunk)
	if t.err != nil {
		return 0, t.err
	}
	return t.cycles.Load(), nil
}

// runInline is the decode-shaped fast path: every row block on the
// caller, on one unit, with no loop state. run does not escape, so the
// drivers' closures stay on their stacks and the path allocates nothing.
func runInline(cfg TileConfig, rowBlocks int, run func(pu *pooledUnit, rb int) error) (uint64, error) {
	pu := getUnit()
	defer putUnit(pu)
	start := pu.u.Cycles()
	err := pu.ensure(cfg)
	for rb := 0; err == nil && rb < rowBlocks; rb++ {
		err = run(pu, rb)
	}
	if err != nil {
		return 0, err
	}
	return pu.u.Cycles() - start, nil
}

// kernel names one of the three block kernels (kernels.go).
type kernel uint8

const (
	kernelBytes   kernel = iota // bytesKernel, the oracle
	kernelDecoded               // decodedKernel, the emulator's fast path
	kernelHW                    // hwKernel, the host's tile unit
)

// blockKernel is one way of computing a 16×16 output block of a blocked
// product on a tile unit. The three kernels — the byte oracle, the
// decoded fast path and the host's tile unit, each instantiated for BF16
// and INT8 — issue the same instruction sequence with the same faults
// and cycles and differ only in how the operands travel and where the
// MACs run, so drive is written once.
type blockKernel[C float32 | int32] interface {
	// zero is TILEZERO on the accumulator tile.
	zero(pu *pooledUnit) error
	// mac is C(rb, cb) += A(rb, kb) · B(kb, cb): two TILELOADDs and one
	// TDP. Only the stripe's first valid rows carry data; a kernel may
	// elide the padding rows' host arithmetic, never their cycles.
	mac(pu *pooledUnit, rb, cb, kb, valid int) error
	// store is TILESTORED: the finished accumulator, row-major with stride
	// blockN, valid until the unit's next zero.
	store(pu *pooledUnit) ([]C, error)
}

// drive runs one blocked product C (m×n) over the grid of 16×16 output
// blocks — partitioned over the worker team when the product is large
// enough to split, inline on the caller otherwise — and returns the
// emulated cycles consumed. The C tile is 16 rows of 16 32-bit lanes for
// both element types, so blockM/blockN describe the INT8 grid too.
func drive[C float32 | int32, K blockKernel[C]](cfg TileConfig, kern K, c []C, m, n, kBlocks int, zero *zeroBitmap) (uint64, error) {
	rowBlocks := ceilDiv(m, blockM)
	colBlocks := ceilDiv(n, blockN)
	if splits(m, rowBlocks, colBlocks, kBlocks) {
		return runTiled(cfg, rowBlocks, colBlocks, func(pu *pooledUnit, rb, cbLo, cbHi int) error {
			return driveStripe(pu, kern, rb, cbLo, cbHi, kBlocks, c, m, n, zero)
		})
	}
	return runInline(cfg, rowBlocks, func(pu *pooledUnit, rb int) error {
		return driveStripe(pu, kern, rb, 0, colBlocks, kBlocks, c, m, n, zero)
	})
}

// driveStripe computes column blocks [cbLo, cbHi) of one 16-row stripe of
// the output. A non-nil zero bitmap (sparse operand) elides a marked
// block's TileLoads and TDP for every kernel alike, which is what keeps
// the byte and decoded kernels bit-identical on sparse operands. Not a
// closure in drive: the team path's would escape and the inline path
// must stay allocation-free.
func driveStripe[C float32 | int32, K blockKernel[C]](pu *pooledUnit, kern K, rb, cbLo, cbHi, kBlocks int, c []C, m, n int, zero *zeroBitmap) error {
	// Rows of this stripe that carry real data; the rest of the tile is
	// zero padding whose accumulator rows are never scattered (a GEMV
	// otherwise pays 16 rows of host arithmetic for 1 row of output).
	valid := min(m-rb*blockM, blockM)
	for cb := cbLo; cb < cbHi; cb++ {
		if err := kern.zero(pu); err != nil {
			return err
		}
		for kb := 0; kb < kBlocks; kb++ {
			if zero.skipBlock(cb, kb, kBlocks) {
				continue
			}
			if err := kern.mac(pu, rb, cb, kb, valid); err != nil {
				return err
			}
		}
		acc, err := kern.store(pu)
		if err != nil {
			return err
		}
		// Scatter the accumulator into the unpadded result.
		cols := min(n-cb*blockN, blockN)
		for r := 0; r < valid; r++ {
			off := (rb*blockM+r)*n + cb*blockN
			copy(c[off:off+cols], acc[r*blockN:r*blockN+cols])
		}
	}
	return nil
}

// scratchPool recycles one kind of operand buffer across matmul calls.
type scratchPool[T any] struct{ p sync.Pool }

// byteScratch holds the tile images of A; f32Scratch the decoded BF16
// path's float32 buffers (pre-rounded A stripes, the INT4 kernel's
// rounded rows and group sums).
var (
	byteScratch scratchPool[byte]
	f32Scratch  scratchPool[float32]
)

// get returns a length-n buffer (contents unspecified; the pack routines
// overwrite every element including padding).
func (s *scratchPool[T]) get(n int) *[]T {
	bp, _ := s.p.Get().(*[]T)
	if bp == nil {
		bp = new([]T)
	}
	if cap(*bp) < n {
		*bp = make([]T, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// put returns a buffer obtained from get.
func (s *scratchPool[T]) put(bp *[]T) { s.p.Put(bp) }
