//go:build !purego

package amx

import "syscall"

// hwAvailable reports whether this process may issue AMX tile
// instructions: the CPU advertises AMX-BF16, AMX-TILE and AMX-INT8
// (CPUID.(7,0).EDX bits 22, 24 and 25) and the kernel grants the
// XTILEDATA state component (arch_prctl(ARCH_REQ_XCOMP_PERM, 18) == 0).
// The permission is per process and covers threads created later, so it
// is asked for once, here. Granting it is also the kernel's check that
// every signal stack — Go's included — can hold the tile state a signal
// frame saves.
var hwAvailable = probeHW()

func probeHW() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const amxBF16, amxTile, amxINT8 = 1 << 22, 1 << 24, 1 << 25
	if _, _, _, edx := cpuid(7, 0); edx&(amxBF16|amxTile|amxINT8) != amxBF16|amxTile|amxINT8 {
		return false
	}
	const archReqXcompPerm, xfeatureXTileData = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXTileData, 0)
	return errno == 0
}

// cpuid executes CPUID with EAX = eaxArg, ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xinuse returns XGETBV with ECX = 1: XCR0 masked by the state
// components the calling thread has in use (bit 18 is TILEDATA). Valid
// only where CPUID.(0xD,1).EAX bit 2 is set; tests use it to show that
// the stripe routines leave the tile state INIT.
func xinuse() uint64

// tdpbusdStripe issues one stripe's queued output blocks to the tile
// unit in one call: ldtilecfg cfg, then for each block i < blocks
// tilezero tmm0 · chain[i] × (tileloadd tmm1 ← a+aOff (stride aStride) ·
// tileloadd tmm2 ← b+bOff (stride bStride) · tdpbusd tmm0 += tmm1·tmm2),
// taking the (aOff, bOff) pairs from offs in order, · tilestored tmm0 →
// c + i·1024 bytes (16 rows of 64) — then one tilerelease. A block with
// an empty chain is stored as tilezero left it, +0 in every lane.
// blocks must be at least 1 and at most stripeBlocks, which bounds the
// accumulator at c and the time between the caller's preemption points.
// The routine checks nothing: the caller has run every block's *Check
// ops against cfg's geometry first, because on silicon a bad operand is
// a fault, not an error. Tile state is INIT again when it returns, so the
// goroutine may migrate threads.
//
//go:noescape
func tdpbusdStripe(cfg *hwTileCfg, c *int32, a *byte, aStride uintptr, b *byte, bStride uintptr, offs *[2]uintptr, chain *uintptr, blocks int)

// tdpbf16psStripe is tdpbusdStripe with tdpbf16ps as the dot product: a
// holds bf16 pairs, b their VNNI-packed right operand, c float32. The
// same contract holds: everything validated by the caller, tile state
// INIT on return.
//
//go:noescape
func tdpbf16psStripe(cfg *hwTileCfg, c *float32, a *byte, aStride uintptr, b *byte, bStride uintptr, offs *[2]uintptr, chain *uintptr, blocks int)
