package llm

import "github.com/lia-sim/lia/internal/model"

// MemHost observes the executor's memory traffic: weight-pack residency,
// KV-cache lifetime, and per-pass access patterns. A host never supplies
// data and never alters the math — every hook is purely observational, so
// a hosted executor's tokens are bit-identical to a resident one's (the
// offload differential test pins this across the full invariance corpus).
//
// The executor invokes CacheCreated/CacheRetired from whichever goroutine
// owns the cache, and BeginPass once per forward pass; hosts must be safe
// for concurrent calls (batch sequences run on forked executors in
// parallel). The PassHooks a host returns is used by a single goroutine
// for the duration of that pass.
type MemHost interface {
	// CacheCreated announces a new, empty KV cache. IDs are unique per
	// shared executor family and never reused.
	CacheCreated(id int64)
	// CacheRetired announces that a cache's storage can be reclaimed.
	// Retiring an unknown or already-retired id is a no-op.
	CacheRetired(id int64)
	// BeginPass starts one forward pass: rows fresh positions appended to
	// cacheID after past cached ones. The returned hooks receive that
	// pass's layer events; a nil return disables per-pass observation.
	BeginPass(cacheID int64, stage model.Stage, rows, past int) PassHooks
}

// PassHooks receives one forward pass's memory events in execution order.
// Implementations may block (e.g. to model a prefetch dependency); the
// executor calls them synchronously from the pass's goroutine.
type PassHooks interface {
	// LayerStart fires before layer li's first sublayer executes.
	LayerStart(li int)
	// WeightPacked fires when a parameter sublayer's weight is converted
	// to a static layout (VNNI pack or BF16 rounding) — at most once per
	// (layer, sublayer, route) across the executor family.
	WeightPacked(li int, s model.Sublayer)
	// WeightAccess fires on every use of a parameter sublayer's weights.
	WeightAccess(li int, s model.Sublayer)
	// KVWrite fires after rows fresh K/V rows are appended for layer li.
	KVWrite(li, rows int)
	// KVRead fires when layer li's attention reads rows cached positions.
	KVRead(li, rows int)
	// EndPass fires after the final layer, before the LM head.
	EndPass()
}
