package amx

import "encoding/binary"

// This file holds the two block kernels drive runs, each written once
// for both element types. What differs between TDPBF16PS and TDPBUSD —
// the instruction's semantics on the emulator and on the tile unit, and
// how A reaches them — is a tmul value of concrete functions (and one
// flag), so nothing is boxed in an interface on the per-block path.
// Everything else is
// shared because the blocking is: a C tile is 16 rows of 16 32-bit
// lanes, and a k-block is 64 bytes of every A row and 16 VNNI rows of B.
// In bytes, block (rb, cb, kb) of A starts kb·64 bytes into row rb·16 of
// an image whose rows are padK·laneBytes bytes, and its B block kb·16
// rows of padN·4 bytes down, cb·64 bytes in — the same offsets for both
// element types.

// tmul is one TMUL instruction as the kernels run it: TDPBF16PS over
// float32 activations, bf16-rounded float32 weight lanes and a float32
// accumulator, or TDPBUSD over uint8, int8 and int32.
type tmul[A float32 | uint8, E float32 | int8, C float32 | int32] struct {
	// busd selects TDPBUSD's checks (Unit.tdpCheck). tdpDecoded is the
	// instruction on the decoded emulator (fast selects plain float32
	// arithmetic; TDPBUSD ignores it).
	busd       bool
	tdpDecoded func(u *Unit, dst, a, b, rows int, fast bool, c []C, cStride int, aDec []A, aStride int, bCols []E, bColStride int) error
	// stripe issues a stripe's queued blocks to the tile unit.
	stripe func(cfg *hwTileCfg, c *C, a *byte, aStride uintptr, b *byte, bStride uintptr, offs *[2]uintptr, chain *uintptr, blocks int)
	// packA writes A's padded tile image; decodeA its padded decoded
	// lanes, returning their span, into buffers from scratch.
	packA   func(dst []byte, src []A, rows, cols, padRows, padCols int)
	decodeA func(dst, src []A, rows, cols, padRows, padCols int) bf16Span
	scratch *scratchPool[A]
	// acc is a unit's stripe accumulator.
	acc func(pu *pooledUnit) *[stripeBlocks * tileLanes]C
}

var (
	bf16TMUL = tmul[float32, float32, float32]{
		tdpDecoded: (*Unit).tdpBF16PSDecodedRows, stripe: tdpbf16psStripe,
		packA: packBF16Into, decodeA: packBF16DecodedInto, scratch: &f32Scratch,
		acc: func(pu *pooledUnit) *[stripeBlocks * tileLanes]float32 { return &pu.accF },
	}
	int8TMUL = tmul[uint8, int8, int32]{
		busd: true, tdpDecoded: (*Unit).tdpBUSDDecodedRows,
		stripe: tdpbusdStripe, packA: packU8Into, scratch: &byteScratch,
		// The unsigned A image needs no decoding: its padded bytes are the
		// lane values and the tile unit's layout.
		decodeA: func(dst, src []uint8, rows, cols, padRows, padCols int) bf16Span {
			packU8Into(dst, src, rows, cols, padRows, padCols)
			return bf16Span{}
		},
		acc: func(pu *pooledUnit) *[stripeBlocks * tileLanes]int32 { return &pu.accI },
	}
)

// tmulOf returns the instruction over A, E and C.
func tmulOf[A float32 | uint8, E float32 | int8, C float32 | int32]() *tmul[A, E, C] {
	if t, ok := any(&bf16TMUL).(*tmul[A, E, C]); ok {
		return t
	}
	return any(&int8TMUL).(*tmul[A, E, C])
}

// product is what every kernel of one product shares: the instruction,
// the operand, its lane width and the byte strides of the A and B
// images.
type product[A float32 | uint8, E float32 | int8, C float32 | int32] struct {
	t                      *tmul[A, E, C]
	w                      *operand[E]
	lane, aStride, bStride int
}

// offsets returns the byte offsets of block (rb, cb, kb)'s A and B tiles.
// Each kernel writes its two load checks out itself: a shared helper is
// not inlined into the shape-instantiated kernels and cost ≈10% per
// block.
func (p *product[A, E, C]) offsets(rb, cb, kb int) (aOff, bOff int) {
	return rb*blockM*p.aStride + kb*MaxColBytes, kb*MaxRows*p.bStride + cb*MaxColBytes
}

// decodedKernel is the emulator's block kernel: the TILEZERO / TILELOADD
// / TDP / TILESTORED sequence as *Check ops — the tile unit's faults and
// cycle accounting, each load checked against the bytes of the tile
// image it stands for — with the MAC loop over flat pre-decoded slices
// and the accumulator decoded end to end. fast is bf16Fast of the two
// operands: the accumulator starts at +0 for every block, so a BF16
// product may run plain float32.
type decodedKernel[A float32 | uint8, E float32 | int8, C float32 | int32] struct {
	product[A, E, C]
	a    []A // padded decoded lanes of A (tmul.decodeA)
	fast bool
}

func (k decodedKernel[A, E, C]) zero(pu *pooledUnit, s int) error {
	clear(k.t.acc(pu)[s*tileLanes : (s+1)*tileLanes])
	return pu.u.TileZeroCheck(tmmC)
}

func (k decodedKernel[A, E, C]) mac(pu *pooledUnit, s, rb, cb, kb, valid int) error {
	// The loads are checked against the bytes of the tile images: the
	// decoded views hold as many lanes as the images, though the B view
	// is column-major.
	aOff, bOff := k.offsets(rb, cb, kb)
	if err := pu.u.TileLoadCheck(tmmA, k.lane*len(k.a)-aOff, k.aStride); err != nil {
		return err
	}
	if err := pu.u.TileLoadCheck(tmmB, k.lane*len(k.w.dec)-bOff, k.bStride); err != nil {
		return err
	}
	bCol := cb*blockN*k.w.decStride + kb*MaxColBytes/k.lane
	return k.t.tdpDecoded(pu.u, tmmC, tmmA, tmmB, valid, k.fast, k.t.acc(pu)[s*tileLanes:(s+1)*tileLanes], blockN, k.a[aOff/k.lane:], k.w.padK, k.w.dec[bCol:], k.w.decStride)
}

func (k decodedKernel[A, E, C]) store(pu *pooledUnit, _ int) error {
	return pu.u.TileStoreCheck(tmmC, blockM*blockN*4, blockN*4)
}

func (k decodedKernel[A, E, C]) issue(pu *pooledUnit, _ int) []C { return k.t.acc(pu)[:] }

// hwKernel is the block kernel on the host's tile unit: zero, mac and
// store run the decoded kernel's *Check ops — faults and modelled cycles
// are the emulator's — with every load validated against the bytes the
// instruction reads (the padded A image, the VNNI image of B), and queue
// each validated k-block's (A, B) offsets on the unit; issue hands the
// stripe's queued blocks to the tile unit in one tmul.stripe call, which
// starts every block from TILEZERO and stores it into its slot of the
// unit's accumulator. The emulator computes both instructions in the
// tile unit's order and rounding, so results are bit-identical to it.
type hwKernel[A float32 | uint8, E float32 | int8, C float32 | int32] struct {
	product[A, E, C]
	a []byte // padded tile image of A (tmul.packA)
}

func (k hwKernel[A, E, C]) zero(pu *pooledUnit, s int) error {
	pu.hwChain[s] = 0
	return pu.u.TileZeroCheck(tmmC)
}

func (k hwKernel[A, E, C]) mac(pu *pooledUnit, s, rb, cb, kb, _ int) error {
	aOff, bOff := k.offsets(rb, cb, kb)
	if err := pu.u.TileLoadCheck(tmmA, len(k.a)-aOff, k.aStride); err != nil {
		return err
	}
	if err := pu.u.TileLoadCheck(tmmB, len(k.w.vnni)-bOff, k.bStride); err != nil {
		return err
	}
	if err := pu.u.tdpCheck(k.t.busd, tmmC, tmmA, tmmB); err != nil {
		return err
	}
	pu.hwOffs = append(pu.hwOffs, [2]uintptr{uintptr(aOff), uintptr(bOff)})
	pu.hwChain[s]++
	return nil
}

func (k hwKernel[A, E, C]) store(pu *pooledUnit, _ int) error {
	return pu.u.TileStoreCheck(tmmC, blockM*blockN*4, blockN*4)
}

func (k hwKernel[A, E, C]) issue(pu *pooledUnit, n int) []C {
	acc := k.t.acc(pu)
	if n > 0 {
		// A stripe whose every block the bitmap emptied queues no
		// offsets; the routine then reads none.
		var offs *[2]uintptr
		if len(pu.hwOffs) > 0 {
			offs = &pu.hwOffs[0]
		}
		k.t.stripe(&pu.hwCfg, &acc[0], &k.a[0], uintptr(k.aStride), &k.w.vnni[0], uintptr(k.bStride), offs, &pu.hwChain[0], n)
	}
	pu.hwOffs = pu.hwOffs[:0]
	return acc[:]
}

// hwTileCfg is LDTILECFG's 64-byte memory operand: byte 0 the palette
// (1), bytes 16–47 each tile's bytes per row as uint16, bytes 48–63 each
// tile's rows; unused tiles and reserved bytes zero.
type hwTileCfg [64]byte

// hwConfig encodes cfg for LDTILECFG. cfg has passed Configure's checks,
// so the encoded palette is one the instruction accepts.
func hwConfig(cfg TileConfig) (b hwTileCfg) {
	b[0] = 1
	for i, sh := range cfg.Tiles {
		binary.LittleEndian.PutUint16(b[16+2*i:], uint16(sh.ColBytes))
		b[48+i] = byte(sh.Rows)
	}
	return b
}
