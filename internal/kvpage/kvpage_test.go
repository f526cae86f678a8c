package kvpage

import (
	"testing"
	"testing/quick"

	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// tiny builds a 100-block manager with 16-token blocks.
func tiny(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(100*16*units.KiB, 16, units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(units.MiB, 0, units.KiB); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewManager(units.MiB, 16, 0); err == nil {
		t.Error("zero bytes/token accepted")
	}
	if _, err := NewManager(10, 16, units.KiB); err == nil {
		t.Error("budget below one block accepted")
	}
}

func TestAdmitExtendRelease(t *testing.T) {
	m := tiny(t)
	if m.TotalBlocks() != 100 || m.FreeBlocks() != 100 {
		t.Fatalf("pool = %d/%d", m.FreeBlocks(), m.TotalBlocks())
	}
	// A 20-token prompt needs 2 blocks plus the reserved headroom block.
	if err := m.Admit(1, 20); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 97 || m.Tokens(1) != 20 || m.Blocks(1) != 3 {
		t.Errorf("after admit: free=%d tokens=%d blocks=%d", m.FreeBlocks(), m.Tokens(1), m.Blocks(1))
	}
	// Extending through the partial block and across the first boundary
	// (token 33) allocates nothing: the boundary lands in the headroom
	// block reserved at admission.
	for i := 0; i < 28; i++ { // tokens 21..48
		if err := m.Extend(1); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreeBlocks() != 97 {
		t.Errorf("extend within reserved blocks allocated: free=%d", m.FreeBlocks())
	}
	// The 49th token crosses into a fourth block — only now does the pool
	// hand out another one.
	if err := m.Extend(1); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 96 {
		t.Errorf("block boundary not allocated: free=%d", m.FreeBlocks())
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 100 || m.Live() != 0 {
		t.Errorf("release leaked: free=%d live=%d", m.FreeBlocks(), m.Live())
	}
}

// TestAdmitReservesHeadroom pins the admission-headroom bug: CanAdmit
// charges blocksFor(prompt)+1 but Admit used to pop only blocksFor, so
// two sequences could both pass the check against the same last free
// block and then both fail their first block-boundary Extend. With the
// headroom actually reserved, the second admit is refused up front and
// the first sequence's boundary crossing is guaranteed.
func TestAdmitReservesHeadroom(t *testing.T) {
	m, err := NewManager(3*16*units.KiB, 16, units.KiB) // 3 blocks
	if err != nil {
		t.Fatal(err)
	}
	if !m.CanAdmit(16) {
		t.Fatal("empty 3-block pool must admit a 1-block prompt")
	}
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	// The headroom block must be gone from the free list now, so a second
	// 1-block prompt (needing 1+1 blocks) no longer fits. The unfixed
	// allocator left it free and admitted sequence 2 here — and then both
	// sequences raced for one block at their first boundary crossing.
	if m.CanAdmit(16) {
		t.Fatal("headroom block not reserved: second admit would race the first sequence's growth")
	}
	// The admitted sequence's guaranteed growth: 16 more tokens (through
	// its second block) without any allocation failure.
	for i := 0; i < 16; i++ {
		if err := m.Extend(1); err != nil {
			t.Fatalf("extend %d failed despite reserved headroom: %v", i, err)
		}
	}
}

func TestAdmitErrors(t *testing.T) {
	m := tiny(t)
	if err := m.Admit(1, 0); err == nil {
		t.Error("zero prompt accepted")
	}
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(1, 16); err == nil {
		t.Error("duplicate sequence accepted")
	}
	if err := m.Admit(2, 100*16); err == nil {
		t.Error("over-capacity admit accepted")
	}
	if err := m.Extend(99); err == nil {
		t.Error("extending unknown sequence accepted")
	}
	if err := m.Release(99); err == nil {
		t.Error("releasing unknown sequence accepted")
	}
}

func TestExtendExhaustionRollsBack(t *testing.T) {
	m, err := NewManager(2*16*units.KiB, 16, units.KiB) // 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(1, 16); err != nil { // 1 prompt block + 1 headroom = whole pool
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // tokens 17..32 fill the headroom block
		if err := m.Extend(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Extend(1); err == nil {
		t.Fatal("extension past capacity accepted")
	}
	if m.Tokens(1) != 32 {
		t.Errorf("failed extend must roll back: tokens=%d", m.Tokens(1))
	}
}

func TestCanAdmitKeepsHeadroom(t *testing.T) {
	m, _ := NewManager(4*16*units.KiB, 16, units.KiB) // 4 blocks
	if !m.CanAdmit(30) {                              // 2 blocks + 1 headroom ≤ 4
		t.Error("should admit")
	}
	if m.CanAdmit(60) { // 4 blocks + 1 headroom > 4
		t.Error("should not admit without headroom")
	}
}

func TestStatsAndWaste(t *testing.T) {
	m := tiny(t)
	if err := m.Admit(1, 17); err != nil { // 2 blocks + headroom, 17/48 slots used
		t.Fatal(err)
	}
	st := m.Stats()
	if st.UsedBlocks != 3 || st.UsedTokens != 17 {
		t.Errorf("stats = %+v", st)
	}
	wantWaste := 1 - 17.0/48.0
	if st.InternalWaste < wantWaste-1e-9 || st.InternalWaste > wantWaste+1e-9 {
		t.Errorf("waste = %v, want %v", st.InternalWaste, wantWaste)
	}
	if st.UsedBytes != 48*units.KiB {
		t.Errorf("used bytes = %v", st.UsedBytes)
	}
}

// TestMaxConcurrentSequencesMatchesAdmission pins the §6 capacity answer
// to what admission actually accepts: repeatedly admitting mean-length
// sequences must place exactly MaxConcurrentSequences of them. (The
// formula previously omitted the +1 headroom block CanAdmit charges,
// so it overstated capacity.) With a shared prefix the same must hold
// when the prefix's whole blocks are held once (as the prefix tree holds
// them) and every sequence is admitted over them: held is how many
// blocks the formula's clamps leave shareable — a partial last block is
// not, and a prefix never covers the whole sequence.
func TestMaxConcurrentSequencesMatchesAdmission(t *testing.T) {
	cases := []struct {
		blocks, blockTokens, mean int
		isolated                  int // MaxConcurrentSequences(mean)
		shared, held              int
		want                      int // MaxConcurrentSequencesShared(mean, shared)
	}{
		{blocks: 100, blockTokens: 16, mean: 16, isolated: 50, want: 50}, // 1+1 blocks per sequence
		{blocks: 100, blockTokens: 16, mean: 17, isolated: 33, want: 33}, // 2+1 blocks per sequence
		{blocks: 100, blockTokens: 16, mean: 300, isolated: 5, want: 5},  // 19+1 blocks per sequence
		{blocks: 3, blockTokens: 16, mean: 16, isolated: 1, want: 1},     // the double-admit scenario
		{blocks: 2, blockTokens: 16, mean: 33, isolated: 0, want: 0},     // cannot ever fit
		{blocks: 100, blockTokens: 16, mean: 0, isolated: 0, want: 0},    // degenerate
		// The hot-prefix trace's capacity figure (EXPERIMENTS.md): a
		// 512-token pool of 4-token blocks, 64-token mean sequences, a
		// 48-token cached prefix — 16+1 blocks each isolated, (16−12)+1
		// over 128−12 blocks shared.
		{blocks: 128, blockTokens: 4, mean: 64, isolated: 7, shared: 48, held: 12, want: 23},
		{blocks: 20, blockTokens: 16, mean: 48, isolated: 5, shared: 32, held: 2, want: 9},
		{blocks: 20, blockTokens: 16, mean: 48, isolated: 5, shared: 40, held: 2, want: 9},     // partial last block not shareable
		{blocks: 20, blockTokens: 16, mean: 48, isolated: 5, shared: 15, held: 0, want: 5},     // under one block: nothing to share
		{blocks: 20, blockTokens: 16, mean: 48, isolated: 5, shared: -5, held: 0, want: 5},     // negative clamps to 0
		{blocks: 100, blockTokens: 16, mean: 16, isolated: 50, shared: 100, held: 0, want: 50}, // shared ≥ mean clamps to mean−1
		{blocks: 20, blockTokens: 16, mean: 32, isolated: 6, shared: 32, held: 1, want: 9},     // …which leaves one whole block of two
		{blocks: 3, blockTokens: 16, mean: 48, isolated: 0, shared: 32, held: 2, want: 0},      // prefix fits, no sequence over it does
	}
	for _, c := range cases {
		newPool := func() *Manager {
			m, err := NewManager(units.Bytes(c.blocks*c.blockTokens)*units.KiB, c.blockTokens, units.KiB)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := newPool()
		if got := m.MaxConcurrentSequences(c.mean); got != c.isolated {
			t.Errorf("%+v: MaxConcurrentSequences=%d, want %d", c, got, c.isolated)
		}
		if got := m.MaxConcurrentSequencesShared(c.mean, c.shared); got != c.want {
			t.Errorf("%+v: MaxConcurrentSequencesShared=%d, want %d", c, got, c.want)
		}
		if c.mean < 1 {
			continue
		}
		admitted := 0
		for m.CanAdmit(c.mean) {
			if err := m.Admit(admitted, c.mean); err != nil {
				t.Fatalf("%+v: CanAdmit passed but Admit failed: %v", c, err)
			}
			admitted++
		}
		if admitted != c.isolated {
			t.Errorf("%+v: admission placed %d sequences, formula says %d", c, admitted, c.isolated)
		}

		m = newPool()
		prefix, err := m.AllocBlocks(c.held)
		if err != nil {
			t.Fatalf("%+v: holding the prefix: %v", c, err)
		}
		// AdmitShared refuses, changing nothing, once the suffix and
		// headroom no longer fit.
		admitted = 0
		for m.AdmitShared(admitted, c.mean, prefix) == nil {
			admitted++
		}
		if admitted != c.want {
			t.Errorf("%+v: admission over %d held prefix blocks placed %d sequences, formula says %d", c, c.held, admitted, c.want)
		}
	}
}

func TestMaxConcurrentSequencesShared(t *testing.T) {
	m, err := NewManager(20*16*units.KiB, 16, units.KiB) // 20 blocks
	if err != nil {
		t.Fatal(err)
	}
	// 48-token sequences: 3 blocks + headroom = 4 each → 5 fit cold.
	if got := m.MaxConcurrentSequences(48); got != 5 {
		t.Fatalf("cold capacity = %d, want 5", got)
	}
	// With a 32-token shared prefix (2 blocks charged once), each
	// sequence pays 1 suffix block + 1 headroom → (20−2)/2 = 9.
	if got := m.MaxConcurrentSequencesShared(48, 32); got != 9 {
		t.Errorf("shared capacity = %d, want 9", got)
	}
	// Partial shared blocks don't count; prefix ≥ mean is clamped.
	if got := m.MaxConcurrentSequencesShared(48, 15); got != 5 {
		t.Errorf("sub-block prefix must not discount: got %d", got)
	}
	if got := m.MaxConcurrentSequencesShared(16, 100); got != m.MaxConcurrentSequences(16) {
		t.Errorf("over-long prefix must clamp, got %d", got)
	}
}

func TestAdmitSharedAccounting(t *testing.T) {
	m := tiny(t)
	prefix, err := m.AllocBlocks(2) // tree-owned 32-token prefix
	if err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 98 {
		t.Fatalf("free=%d after AllocBlocks", m.FreeBlocks())
	}
	// 40-token prompt sharing the 2 prefix blocks: pops 1 suffix + 1
	// headroom, retains the shared pair.
	if err := m.AdmitShared(1, 40, prefix); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 96 || m.Blocks(1) != 4 {
		t.Errorf("free=%d blocks=%d", m.FreeBlocks(), m.Blocks(1))
	}
	for _, id := range prefix {
		if m.BlockRef(id) != 2 {
			t.Errorf("prefix block %d ref=%d, want 2", id, m.BlockRef(id))
		}
	}
	// Shared tokens are counted once: 2 tree blocks (32 slots) + the
	// sequence's 8 unshared tokens.
	if st := m.Stats(); st.UsedTokens != 40 {
		t.Errorf("UsedTokens=%d, want 40", st.UsedTokens)
	}
	// A second sequence over the same prefix pays only its suffix.
	if err := m.AdmitShared(2, 40, prefix); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 94 {
		t.Errorf("free=%d after second shared admit", m.FreeBlocks())
	}
	// Releasing the sequences keeps the prefix alive for the tree.
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(2); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 98 {
		t.Errorf("free=%d after releases, want 98", m.FreeBlocks())
	}
	for _, id := range prefix {
		if m.BlockRef(id) != 1 {
			t.Errorf("prefix block %d ref=%d, want 1", id, m.BlockRef(id))
		}
	}
	if err := m.ReleaseBlocks(prefix); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 100 {
		t.Errorf("free=%d after tree release, want 100", m.FreeBlocks())
	}
}

func TestAdmitSharedValidation(t *testing.T) {
	m := tiny(t)
	prefix, err := m.AllocBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AdmitShared(1, 16, prefix); err == nil {
		t.Error("shared blocks covering the whole prompt accepted")
	}
	if err := m.AdmitShared(1, 20, []int{999}); err == nil {
		t.Error("out-of-range shared block accepted")
	}
	if err := m.AdmitShared(1, 20, []int{50}); err == nil {
		t.Error("free shared block accepted")
	}
	if err := m.ReleaseBlocks(prefix); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseBlocks(prefix); err == nil {
		t.Error("double release accepted")
	}
	if _, err := m.AllocBlocks(-1); err == nil {
		t.Error("negative block count accepted")
	}
	if _, err := m.AllocBlocks(101); err == nil {
		t.Error("over-capacity AllocBlocks accepted")
	}
}

// TestPagingBeatsMaxLengthReservation quantifies paging's point: a pool
// sized for OPT-30B admits far more concurrent 300-token sequences under
// paging than under reserve-to-max-length.
func TestPagingBeatsMaxLengthReservation(t *testing.T) {
	budget := 100 * units.GB
	m, err := ForModel(budget, 16, model.OPT30B)
	if err != nil {
		t.Fatal(err)
	}
	paged := m.MaxConcurrentSequences(300)
	perTok := model.OPT30B.KVBytes(1, 1)
	reserved := int(float64(budget) / float64(perTok*units.Bytes(model.OPT30B.MaxSeqLen)))
	if paged < 5*reserved {
		t.Errorf("paging admits %d vs %d reserved — want ≥5x (2048/300 ≈ 6.8x)", paged, reserved)
	}
}

// Property: for any admit/extend/release interleaving, blocks never leak
// and free+used == total.
func TestNoBlockLeaksProperty(t *testing.T) {
	f := func(ops [40]uint8) bool {
		m, err := NewManager(50*16*units.KiB, 16, units.KiB)
		if err != nil {
			return false
		}
		next := 0
		live := []int{}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if m.CanAdmit(int(op)%40 + 1) {
					if err := m.Admit(next, int(op)%40+1); err == nil {
						live = append(live, next)
						next++
					}
				}
			case 1:
				if len(live) > 0 {
					_ = m.Extend(live[int(op)%len(live)]) // may fail when full; fine
				}
			case 2:
				if len(live) > 0 {
					idx := int(op) % len(live)
					if err := m.Release(live[idx]); err != nil {
						return false
					}
					live = append(live[:idx], live[idx+1:]...)
				}
			}
			st := m.Stats()
			if st.UsedBlocks+st.FreeBlocks != st.TotalBlocks {
				return false
			}
		}
		for _, id := range live {
			if err := m.Release(id); err != nil {
				return false
			}
		}
		return m.FreeBlocks() == m.TotalBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAdmitBlocksIsWhatAdmissionCharges: AdmitBlocks is exactly the free
// blocks AdmitShared pops and the bound CanAdmit checks, over prompt
// lengths around block boundaries and every shared prefix they allow.
func TestAdmitBlocksIsWhatAdmissionCharges(t *testing.T) {
	for _, prompt := range []int{1, 15, 16, 17, 32, 33, 47} {
		for shared := 0; shared*16 < prompt; shared++ {
			m := tiny(t)
			prefix, err := m.AllocBlocks(shared)
			if err != nil {
				t.Fatal(err)
			}
			free := m.FreeBlocks()
			if err := m.AdmitShared(1, prompt, prefix); err != nil {
				t.Fatal(err)
			}
			if got, want := free-m.FreeBlocks(), m.AdmitBlocks(prompt, shared); got != want {
				t.Errorf("prompt %d sharing %d blocks: admission popped %d, AdmitBlocks says %d", prompt, shared, got, want)
			}
		}
		m := tiny(t)
		if _, err := m.AllocBlocks(m.FreeBlocks() - m.AdmitBlocks(prompt, 0)); err != nil {
			t.Fatal(err)
		}
		if !m.CanAdmit(prompt) {
			t.Errorf("prompt %d: CanAdmit refuses with AdmitBlocks free", prompt)
		}
		if _, err := m.AllocBlocks(1); err != nil {
			t.Fatal(err)
		}
		if m.CanAdmit(prompt) {
			t.Errorf("prompt %d: CanAdmit accepts with one block under AdmitBlocks free", prompt)
		}
	}
}
