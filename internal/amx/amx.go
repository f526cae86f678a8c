// Package amx is a functional emulator of Intel Advanced Matrix
// Extensions: the tile configuration state, the faults and cycles of the
// tile loads, stores and zeroing, and the TMUL dot-product instructions
// TDPBF16PS (bfloat16 → float32 accumulate) and TDPBUSD (uint8 × int8 →
// int32 accumulate). It reproduces the VNNI operand layout, bfloat16
// rounding, the faults, and — exactly — both instructions' arithmetic:
// TDPBUSD's integers, and TDPBF16PS in the host tile unit's own
// accumulation order and rounding (two float32 chains over the even and
// odd lanes, FMA-like lane updates, DAZ and FTZ; bf16Dot in bf16.go). It
// keeps an instruction cycle count so higher layers can reason about AMX
// throughput the same way §4 of the paper does.
//
// The blocked matmul entry points in matmul.go are the "kernel library"
// the functional LLM engine (package llm) routes CPU-offloaded sublayers
// through, proving that the dataflow LIA's analytical model assumes is
// executable end to end. One driver (drive, pool.go) owns the output grid
// and runs it over a block kernel (kernels.go); there are two, each
// written once for BF16 and INT8: the host's tile unit (hwKernel)
// wherever CPUID and the kernel grant it, and the decoded emulator
// everywhere else. Silicon and emulator agree bit for bit, so the
// drivers prefer silicon.
//
// A Unit holds no tile data: its palette, the *Check tile ops and the
// TDP shape checks give both kernels the hardware's faults and cycle
// accounting, while the operands live in flat slices. The decoded
// emulator (the *DecodedRows instructions) applies the discipline real
// AMX kernel libraries apply on hardware — hoist format conversion out
// of the MAC loop — to the emulator itself: operands are decoded once (at
// prepack time for weights, at append time for a KV cache's growing
// operands, once per call for activations) and the inner loops run over
// flat slices. The package's tests pin it, instruction by instruction and
// product by product, to plain-loop references and to silicon.
package amx

import (
	"errors"
	"fmt"
	"math"
)

// Architectural constants of the AMX tile file.
const (
	// NumTiles is the number of tile registers (tmm0–tmm7).
	NumTiles = 8
	// MaxRows is the maximum rows per tile.
	MaxRows = 16
	// MaxColBytes is the maximum bytes per tile row.
	MaxColBytes = 64
)

// Instruction cycle costs for the throughput model. TDP* occupies the
// TMUL grid for 16 cycles on SPR; loads/stores stream a tile through the
// load ports.
const (
	cyclesTileLoad  = 8
	cyclesTileStore = 8
	cyclesTileZero  = 1
	cyclesTDP       = 16
	cyclesConfig    = 18
)

// TileShape describes one tile's configured geometry.
type TileShape struct {
	// Rows is the configured row count (1–16); zero means the tile is
	// unconfigured and faults on use.
	Rows int
	// ColBytes is the configured bytes per row (1–64).
	ColBytes int
}

// TileConfig is the LDTILECFG state: a shape per tile register.
type TileConfig struct {
	// Tiles holds the geometry of tmm0–tmm7.
	Tiles [NumTiles]TileShape
}

// Common errors returned by the emulator.
var (
	// ErrNotConfigured is returned when an instruction touches a tile with
	// no configured shape — the hardware raises #UD.
	ErrNotConfigured = errors.New("amx: tile not configured")
	// ErrBadTile is returned for a tile index outside tmm0–tmm7.
	ErrBadTile = errors.New("amx: tile index out of range")
	// ErrShape is returned when instruction operands have incompatible
	// configured shapes.
	ErrShape = errors.New("amx: incompatible tile shapes")
	// ErrBounds is returned when a load or store would run past the
	// provided memory slice.
	ErrBounds = errors.New("amx: memory access out of bounds")
)

// Unit is one core's AMX state as the checks see it: the installed tile
// palette (all tiles unconfigured until Configure) and a cycle counter.
// It holds no tile data; the kernels keep their operands and
// accumulators in flat slices of their own.
type Unit struct {
	cfg    TileConfig
	cycles uint64
}

// NewUnit returns an AMX unit in the INIT state (no tiles configured).
func NewUnit() *Unit { return &Unit{} }

// Cycles reports the cycles consumed by all instructions so far.
func (u *Unit) Cycles() uint64 { return u.cycles }

// Configure executes LDTILECFG: validates and installs the tile palette.
func (u *Unit) Configure(cfg TileConfig) error {
	for i, sh := range cfg.Tiles {
		if sh == (TileShape{}) {
			continue
		}
		if sh.Rows < 1 || sh.Rows > MaxRows || sh.ColBytes < 1 || sh.ColBytes > MaxColBytes {
			return fmt.Errorf("amx: tile %d shape %dx%dB invalid: %w", i, sh.Rows, sh.ColBytes, ErrShape)
		}
	}
	u.cfg = cfg
	u.cycles += cyclesConfig
	return nil
}

// tileFor returns tile idx's configured shape, faulting as the hardware
// would on a bad index or an unconfigured tile.
func (u *Unit) tileFor(idx int) (TileShape, error) {
	if idx < 0 || idx >= NumTiles {
		return TileShape{}, fmt.Errorf("amx: tmm%d: %w", idx, ErrBadTile)
	}
	t := u.cfg.Tiles[idx]
	if t == (TileShape{}) {
		return TileShape{}, fmt.Errorf("amx: tmm%d: %w", idx, ErrNotConfigured)
	}
	return t, nil
}

// loadCheck validates a TILELOADD's configuration, stride and memory
// bounds against a memory region of memBytes bytes; op selects the
// "load"/"store" wording so the error text names the faulting
// instruction.
func (u *Unit) loadCheck(idx, memBytes, stride int, op string) error {
	t, err := u.tileFor(idx)
	if err != nil {
		return err
	}
	if stride < t.ColBytes {
		return fmt.Errorf("amx: stride %d < row bytes %d: %w", stride, t.ColBytes, ErrShape)
	}
	need := (t.Rows-1)*stride + t.ColBytes
	if need > memBytes {
		return fmt.Errorf("amx: %s needs %d bytes, have %d: %w", op, need, memBytes, ErrBounds)
	}
	return nil
}

// TileLoadCheck performs TILELOADD's fault checking and cycle accounting
// without moving any bytes: the kernels keep their operands in flat
// slices, but a load that would fault on hardware must fault — and cost
// the same cycles — there too. memBytes is the byte length of the tile
// image the load reads from its start.
func (u *Unit) TileLoadCheck(idx, memBytes, stride int) error {
	if err := u.loadCheck(idx, memBytes, stride, "load"); err != nil {
		return err
	}
	u.cycles += cyclesTileLoad
	return nil
}

// TileStoreCheck is TILESTORED's fault-and-cycles-only counterpart, the
// store analog of TileLoadCheck.
func (u *Unit) TileStoreCheck(idx, memBytes, stride int) error {
	if err := u.loadCheck(idx, memBytes, stride, "store"); err != nil {
		return err
	}
	u.cycles += cyclesTileStore
	return nil
}

// TileZeroCheck is TILEZERO's fault-and-cycles-only counterpart: the
// kernels zero their flat accumulators themselves but still pay the
// instruction's cycle (and fault on an unconfigured tile).
func (u *Unit) TileZeroCheck(idx int) error {
	if _, err := u.tileFor(idx); err != nil {
		return err
	}
	u.cycles += cyclesTileZero
	return nil
}

// tdpTiles resolves the three TMUL operand tiles, faulting exactly as
// the hardware would on a bad index or unconfigured tile. The decoded
// instructions and tdpCheck all go through it, so their faults are
// identical.
func (u *Unit) tdpTiles(dst, a, b int) (td, ta, tb TileShape, err error) {
	if td, err = u.tileFor(dst); err != nil {
		return
	}
	if ta, err = u.tileFor(a); err != nil {
		return
	}
	tb, err = u.tileFor(b)
	return
}

// tdpBF16Shapes validates the configured geometry for TDPBF16PS and
// returns the m/n/kPairs trip counts. Shared by the decoded instruction
// and tdpCheck: same checks, same error text.
func tdpBF16Shapes(td, ta, tb TileShape) (m, n, kPairs int, err error) {
	m = td.Rows
	n = td.ColBytes / 4
	kPairs = ta.ColBytes / 4 // bf16 pairs per A row
	if ta.Rows != m {
		return 0, 0, 0, fmt.Errorf("amx: A rows %d != dst rows %d: %w", ta.Rows, m, ErrShape)
	}
	if tb.Rows != kPairs || tb.ColBytes/4 != n {
		return 0, 0, 0, fmt.Errorf("amx: B shape %dx%d incompatible with dst %dx%d / A pairs %d: %w",
			tb.Rows, tb.ColBytes/4, m, n, kPairs, ErrShape)
	}
	return m, n, kPairs, nil
}

// tdpINT8Shapes validates the configured geometry for TDPBUSD, shared
// by the decoded instruction and tdpCheck.
func tdpINT8Shapes(td, ta, tb TileShape) (m, n, kQuads int, err error) {
	m = td.Rows
	n = td.ColBytes / 4
	kQuads = ta.ColBytes / 4
	if ta.Rows != m || tb.Rows != kQuads || tb.ColBytes/4 != n {
		return 0, 0, 0, fmt.Errorf("amx: TDPBUSD operand shapes incompatible: %w", ErrShape)
	}
	return m, n, kQuads, nil
}

// tdpCheck is the fault-and-cycles-only counterpart of TDPBUSD when busd
// is set and of TDPBF16PS otherwise, for the hardware kernel, which
// issues the instruction itself: the same tile resolution and shape
// checks, the same error text, the same cycles.
func (u *Unit) tdpCheck(busd bool, dst, a, b int) error {
	td, ta, tb, err := u.tdpTiles(dst, a, b)
	if err != nil {
		return err
	}
	if busd {
		_, _, _, err = tdpINT8Shapes(td, ta, tb)
	} else {
		_, _, _, err = tdpBF16Shapes(td, ta, tb)
	}
	if err != nil {
		return err
	}
	u.cycles += cyclesTDP
	return nil
}

// tdpBF16PSDecodedRows executes TDPBF16PS's accumulation over pre-decoded
// operands — the fast path real AMX kernel libraries model: format
// conversion is hoisted out of the MAC loop, which runs over flat
// float32 slices with hoisted row subslices and no per-element byte
// assembly.
//
//   - cDec is the float32 accumulator: element (i, j) at cDec[i*cStride+j].
//   - aDec holds tile a's bf16 lanes pre-rounded to float32, row-major:
//     lane k of row i at aDec[i*aStride+k] (2·kPairs lanes per row).
//   - bCols holds tile b's lanes decoded **column-major**: output column
//     j's 2·kPairs lanes, in k order, at bCols[j*bColStride:]. This is a
//     layout-only transpose of the VNNI image — pair p of column j is
//     (bCols[j*bColStride+2p], bCols[j*bColStride+2p+1]), exactly the
//     (B[2p][j], B[2p+1][j]) pair TDPBF16PS reads from packed row p.
//
// Configuration and shape faults, trip counts, cycle accounting and the
// numerics are TDPBF16PS's (bf16Dot per lane), so results are the tile
// unit's bit for bit; only the operand transport differs.
//
// The MAC loop is bounded to the first rows tile rows. The matmul
// drivers use that to skip A rows
// that are pure zero padding (a GEMV pads 1 real row to a 16-row tile):
// a zero A row contributes only zero adds to its accumulator row, and
// the drivers never scatter those rows into the result, so skipping
// them changes no observable output. Faults, trip-count validation and
// cycle accounting are those of the full instruction — the modeled AMX
// unit still pays for the whole tile; only the emulation's host-side
// arithmetic is elided.
//
// fast selects plain float32 arithmetic, which the caller has shown to
// equal bf16Dot for these operands (bf16Fast); otherwise every lane goes
// through bf16Dot.
func (u *Unit) tdpBF16PSDecodedRows(dst, a, b, rows int, fast bool, cDec []float32, cStride int, aDec []float32, aStride int, bCols []float32, bColStride int) error {
	td, ta, tb, err := u.tdpTiles(dst, a, b)
	if err != nil {
		return err
	}
	m, n, kPairs, err := tdpBF16Shapes(td, ta, tb)
	if err != nil {
		return err
	}
	lanes := 2 * kPairs
	if cStride < n || aStride < lanes || bColStride < lanes {
		return fmt.Errorf("amx: decoded strides %d/%d/%d below widths %d/%d: %w", cStride, aStride, bColStride, n, lanes, ErrShape)
	}
	if need := (m-1)*cStride + n; need > len(cDec) {
		return fmt.Errorf("amx: decoded accumulator needs %d values, have %d: %w", need, len(cDec), ErrBounds)
	}
	if need := (m-1)*aStride + lanes; need > len(aDec) {
		return fmt.Errorf("amx: decoded A needs %d values, have %d: %w", need, len(aDec), ErrBounds)
	}
	if need := (n-1)*bColStride + lanes; need > len(bCols) {
		return fmt.Errorf("amx: decoded B needs %d values, have %d: %w", need, len(bCols), ErrBounds)
	}
	if rows < m {
		// Bounds and faults above are the full instruction's; only the
		// MAC trip count shrinks.
		m = rows
	}
	for i := 0; i < m; i++ {
		arow := aDec[i*aStride : i*aStride+lanes]
		crow := cDec[i*cStride : i*cStride+n]
		j := 0
		if fast {
			// Register-blocking four columns per k-walk runs eight
			// independent chains (E and O of each) and reuses every A load
			// fourfold; each chain is still summed in its own order.
			// The columns are resliced to len(arow) and pair p read as
			// (k-1, k) so the compiler proves every index in bounds.
			for ; j+4 <= n; j += 4 {
				b0 := bCols[j*bColStride:][:len(arow)]
				b1 := bCols[(j+1)*bColStride:][:len(arow)]
				b2 := bCols[(j+2)*bColStride:][:len(arow)]
				b3 := bCols[(j+3)*bColStride:][:len(arow)]
				var e0, o0, e1, o1, e2, o2, e3, o3 float32
				for k := 1; k < len(arow); k += 2 {
					a0, a1 := arow[k-1], arow[k]
					e0 += a0 * b0[k-1]
					o0 += a1 * b0[k]
					e1 += a0 * b1[k-1]
					o1 += a1 * b1[k]
					e2 += a0 * b2[k-1]
					o2 += a1 * b2[k]
					e3 += a0 * b3[k-1]
					o3 += a1 * b3[k]
				}
				crow[j] += e0 + o0
				crow[j+1] += e1 + o1
				crow[j+2] += e2 + o2
				crow[j+3] += e3 + o3
			}
		}
		for ; j < n; j++ {
			crow[j] = bf16Dot(crow[j], arow, bCols[j*bColStride:j*bColStride+lanes])
		}
	}
	u.cycles += cyclesTDP
	return nil
}

// tdpBUSDDecodedRows executes TDPBUSD's accumulation over pre-decoded
// operands, the INT8 twin of tdpBF16PSDecodedRows: aDec holds tile a's
// unsigned lanes row-major (4·kQuads per row), bCols tile b's signed
// lanes column-major (output column j's 4·kQuads lanes, in k order, at
// bCols[j*bColStride:]), cDec the int32 accumulator, and the MAC loop
// runs over the first rows tile rows. Faults, cycles and results are
// TDPBUSD's. Integer sums are exact in any order, so it takes no fast
// flag's proof; the unnamed parameter keeps its signature the BF16 one.
func (u *Unit) tdpBUSDDecodedRows(dst, a, b, rows int, _ bool, cDec []int32, cStride int, aDec []uint8, aStride int, bCols []int8, bColStride int) error {
	td, ta, tb, err := u.tdpTiles(dst, a, b)
	if err != nil {
		return err
	}
	m, n, kQuads, err := tdpINT8Shapes(td, ta, tb)
	if err != nil {
		return err
	}
	lanes := 4 * kQuads
	if cStride < n || aStride < lanes || bColStride < lanes {
		return fmt.Errorf("amx: decoded strides %d/%d/%d below widths %d/%d: %w", cStride, aStride, bColStride, n, lanes, ErrShape)
	}
	if need := (m-1)*cStride + n; need > len(cDec) {
		return fmt.Errorf("amx: decoded accumulator needs %d values, have %d: %w", need, len(cDec), ErrBounds)
	}
	if need := (m-1)*aStride + lanes; need > len(aDec) {
		return fmt.Errorf("amx: decoded A needs %d values, have %d: %w", need, len(aDec), ErrBounds)
	}
	if need := (n-1)*bColStride + lanes; need > len(bCols) {
		return fmt.Errorf("amx: decoded B needs %d values, have %d: %w", need, len(bCols), ErrBounds)
	}
	if rows < m {
		m = rows
	}
	for i := 0; i < m; i++ {
		arow := aDec[i*aStride : i*aStride+lanes]
		crow := cDec[i*cStride : i*cStride+n]
		for j := 0; j < n; j++ {
			// Four independent partial sums break the loop-carried
			// dependency on the accumulator; int32 addition wraps and is
			// associative, so the total is bit-identical to a sequential
			// sum. Walking by reslicing lets the compiler prove
			// every access in bounds (lanes is always a multiple of 4:
			// 4·kQuads).
			ap, bp := arow, bCols[j*bColStride:j*bColStride+lanes]
			var s0, s1, s2, s3 int32
			for len(ap) >= 16 && len(bp) >= 16 {
				s0 += int32(ap[0])*int32(bp[0]) + int32(ap[4])*int32(bp[4]) + int32(ap[8])*int32(bp[8]) + int32(ap[12])*int32(bp[12])
				s1 += int32(ap[1])*int32(bp[1]) + int32(ap[5])*int32(bp[5]) + int32(ap[9])*int32(bp[9]) + int32(ap[13])*int32(bp[13])
				s2 += int32(ap[2])*int32(bp[2]) + int32(ap[6])*int32(bp[6]) + int32(ap[10])*int32(bp[10]) + int32(ap[14])*int32(bp[14])
				s3 += int32(ap[3])*int32(bp[3]) + int32(ap[7])*int32(bp[7]) + int32(ap[11])*int32(bp[11]) + int32(ap[15])*int32(bp[15])
				ap, bp = ap[16:], bp[16:]
			}
			for len(ap) >= 4 && len(bp) >= 4 {
				s0 += int32(ap[0]) * int32(bp[0])
				s1 += int32(ap[1]) * int32(bp[1])
				s2 += int32(ap[2]) * int32(bp[2])
				s3 += int32(ap[3]) * int32(bp[3])
				ap, bp = ap[4:], bp[4:]
			}
			crow[j] += s0 + s1 + s2 + s3
		}
	}
	u.cycles += cyclesTDP
	return nil
}

func f32Bits(f float32) uint32 { return math.Float32bits(f) }

func f32FromBits(b uint32) float32 { return math.Float32frombits(b) }
