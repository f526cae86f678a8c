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
	// stripeBlocks caps the column blocks of a stripe that are queued
	// and then issued together (blockKernel.issue): one LDTILECFG and one
	// TILERELEASE per call instead of per block, a 16 KB accumulator per
	// element type, and a bounded run between preemption points.
	stripeBlocks = 16
	// tileLanes is one output block's lanes: 16 rows of 16.
	tileLanes = blockM * blockN
	// hwOffsCap is a new unit's room for queued k-blocks: a full stripe
	// of K up to 2,048 BF16 lanes (64 k-blocks), so the queue grows only
	// for wider products, not as a serving run first meets each shape.
	hwOffsCap = stripeBlocks * 64
)

// splits reports whether a rowBlocks × colBlocks grid over m activation
// rows is worth partitioning: enough work, and more than one chunk.
func splits(m, rowBlocks, colBlocks, kBlocks int) bool {
	return colBlocks*kBlocks*m >= splitTileRows &&
		rowBlocks*ceilDiv(colBlocks, chunkColBlocks) > 1 && workers.Size() > 1
}

// pooledUnit is one emulated core's persistent state: a Unit, the
// last-installed tile palette (so reconfiguration only happens when the
// geometry changes), the stripe accumulators both kernels store their
// blocks into (float32 for BF16, int32 for INT8), and the hardware
// kernel's palette encoding and queued k-chains.
type pooledUnit struct {
	// accF and accI hold up to stripeBlocks finished blocks of one
	// stripe, slot s at [s·tileLanes, (s+1)·tileLanes), row stride blockN.
	// They come first: a unit is a large object, so its start is
	// page-aligned and every 64-byte row the tile unit stores into them
	// fills one cache line instead of straddling two.
	accF [stripeBlocks * tileLanes]float32
	accI [stripeBlocks * tileLanes]int32
	u    *Unit
	cfg  TileConfig
	// hwCfg is cfg encoded for LDTILECFG: the hardware kernel loads
	// exactly the palette its checks ran against.
	hwCfg hwTileCfg
	// hwOffs holds the (A, B) byte offsets of the queued blocks'
	// validated k-blocks, block after block, and hwChain[s] how many of
	// them are slot s's; hwOffs is reused, and grows past hwOffsCap only.
	hwOffs  [][2]uintptr
	hwChain [stripeBlocks]uintptr
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
	return &pooledUnit{u: NewUnit(), hwOffs: make([][2]uintptr, 0, hwOffsCap)}
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

// kernel names one of the two block kernels (kernels.go).
type kernel uint8

const (
	kernelDecoded kernel = iota // decodedKernel, the emulator
	kernelHW                    // hwKernel, the host's tile unit
)

// blockKernel is one way of computing the 16×16 output blocks of a
// blocked product on a tile unit. The two kernels — the decoded emulator
// and the host's tile unit, each instantiated for BF16 and INT8 — issue
// the same instruction sequence with the same faults and cycles and
// differ only in how the operands travel, where the MACs run and when,
// so drive is written once. A stripe's blocks are
// numbered by slot s from 0 within each issue group of at most
// stripeBlocks.
type blockKernel[C float32 | int32] interface {
	// zero is TILEZERO on slot s's accumulator tile.
	zero(pu *pooledUnit, s int) error
	// mac is C(rb, cb) += A(rb, kb) · B(kb, cb) in slot s: two TILELOADDs
	// and one TDP. Only the stripe's first valid rows carry data; a kernel
	// may elide the padding rows' host arithmetic, never their cycles.
	mac(pu *pooledUnit, s, rb, cb, kb, valid int) error
	// store is TILESTORED of slot s into its slot of the stripe
	// accumulator.
	store(pu *pooledUnit, s int) error
	// issue finishes slots [0, n) — the tile unit runs them here; the
	// emulators already have — and returns the stripe accumulator, valid
	// until the unit's next zero.
	issue(pu *pooledUnit, n int) []C
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
// the output, at most stripeBlocks at a time: every block's checks run
// (queueBlocks), then the kernel issues the checked blocks and their
// valid rows are scattered — those before a failed check too, so a fault
// leaves c as issuing each block before checking the next would. Not a closure in drive:
// the team path's would escape and the inline path must stay
// allocation-free.
func driveStripe[C float32 | int32, K blockKernel[C]](pu *pooledUnit, kern K, rb, cbLo, cbHi, kBlocks int, c []C, m, n int, zero *zeroBitmap) error {
	// Rows of this stripe that carry real data; the rest of the tile is
	// zero padding whose accumulator rows are never scattered (a GEMV
	// otherwise pays 16 rows of host arithmetic for 1 row of output).
	valid := min(m-rb*blockM, blockM)
	for lo := cbLo; lo < cbHi; lo += stripeBlocks {
		done, err := queueBlocks(pu, kern, rb, lo, min(lo+stripeBlocks, cbHi), kBlocks, valid, zero)
		acc := kern.issue(pu, done)
		for s := 0; s < done; s++ {
			cb := lo + s
			cols := min(n-cb*blockN, blockN)
			for r := 0; r < valid; r++ {
				off := (rb*blockM+r)*n + cb*blockN
				copy(c[off:off+cols], acc[s*tileLanes+r*blockN:][:cols])
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// queueBlocks runs column blocks [cbLo, cbHi) of stripe rb on the kernel
// as slots 0, 1, …: TILEZERO, a TDP per k-block — except where a non-nil
// zero bitmap (sparse operand) marks the block zero, which elides its
// TileLoads and TDP for every kernel alike, keeping them bit-identical on
// sparse operands — and TILESTORED. It returns how many blocks were
// stored and the first fault.
func queueBlocks[C float32 | int32, K blockKernel[C]](pu *pooledUnit, kern K, rb, cbLo, cbHi, kBlocks, valid int, zero *zeroBitmap) (int, error) {
	for cb := cbLo; cb < cbHi; cb++ {
		s := cb - cbLo
		if err := kern.zero(pu, s); err != nil {
			return s, err
		}
		for kb := 0; kb < kBlocks; kb++ {
			if zero.skipBlock(cb, kb, kBlocks) {
				continue
			}
			if err := kern.mac(pu, s, rb, cb, kb, valid); err != nil {
				return s, err
			}
		}
		if err := kern.store(pu, s); err != nil {
			return s, err
		}
	}
	return cbHi - cbLo, nil
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
