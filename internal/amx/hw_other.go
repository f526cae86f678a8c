//go:build purego || !linux || !amd64

package amx

// hwAvailable is false off linux/amd64 and under the purego build tag:
// the drivers fall back to the decoded emulator there.
const hwAvailable = false

func tdpbusdStripe(cfg *hwTileCfg, c *int32, a *byte, aStride uintptr, b *byte, bStride uintptr, offs *[2]uintptr, chain *uintptr, blocks int) {
	panic("amx: no hardware tile unit on this platform")
}

func tdpbf16psStripe(cfg *hwTileCfg, c *float32, a *byte, aStride uintptr, b *byte, bStride uintptr, offs *[2]uintptr, chain *uintptr, blocks int) {
	panic("amx: no hardware tile unit on this platform")
}
