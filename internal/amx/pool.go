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
// geometry changes), a C-tile staging buffer for the byte path, and the
// decoded fast path's flat C accumulators (float32 for
// TDPBF16PSDecoded, int32 for TDPBUSDDecoded).
type pooledUnit struct {
	u     *Unit
	cfg   TileConfig
	cTile [MaxRows * MaxColBytes]byte
	cDecF [blockM * blockN]float32
	cDecI [blockMi8 * blockNi8]int32
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

// packScratch recycles operand pack buffers across matmul calls.
var packScratch = sync.Pool{New: func() any { return new([]byte) }}

// getScratch returns a length-n byte buffer (contents unspecified; the
// pack routines overwrite every byte including padding).
func getScratch(n int) *[]byte {
	bp := packScratch.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putScratch returns a buffer obtained from getScratch.
func putScratch(bp *[]byte) { packScratch.Put(bp) }

// f32Scratch and i8Scratch recycle the decoded fast path's operand
// buffers (pre-rounded A stripes, per-call decoded B views) across
// matmul calls, mirroring packScratch for the byte images.
var (
	f32Scratch = sync.Pool{New: func() any { return new([]float32) }}
	i8Scratch  = sync.Pool{New: func() any { return new([]int8) }}
)

// getScratchF32 returns a length-n float32 buffer (contents unspecified;
// the decoded pack routines overwrite every element including padding).
func getScratchF32(n int) *[]float32 {
	bp := f32Scratch.Get().(*[]float32)
	if cap(*bp) < n {
		*bp = make([]float32, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putScratchF32 returns a buffer obtained from getScratchF32.
func putScratchF32(bp *[]float32) { f32Scratch.Put(bp) }

// getScratchI8 returns a length-n int8 buffer under the same contract.
func getScratchI8(n int) *[]int8 {
	bp := i8Scratch.Get().(*[]int8)
	if cap(*bp) < n {
		*bp = make([]int8, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putScratchI8 returns a buffer obtained from getScratchI8.
func putScratchI8(bp *[]int8) { i8Scratch.Put(bp) }
