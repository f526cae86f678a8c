package kvprefix

import (
	"testing"

	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/units"
)

// FuzzPrefixTree drives a random interleaving of lookups, pins, inserts,
// shared admissions, releases, spills/evictions, and refetches against a
// small pool, and checks after every operation that the tree's structural
// invariants hold (Validate) and that pool blocks are conserved — no
// leak, no double-free, refcounts consistent. The byte stream is the
// schedule: each op consumes a few bytes for its kind and operands, so
// the corpus stays minimizable.
func FuzzPrefixTree(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 0, 2, 1, 1, 0, 3, 0, 4, 2, 1, 5, 0, 6})
	f.Add([]byte{2, 3, 2, 3, 5, 3, 2, 7, 6, 3, 1, 3, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const blocks = 6
		pool, err := kvpage.NewManager(units.Bytes(blocks*testBT), testBT, 1)
		if err != nil {
			t.Fatal(err)
		}
		sp := &capSpiller{cap: 4}
		tr, err := New(Config{BlockTokens: testBT, Layers: testLayers, Pool: pool, Spiller: sp})
		if err != nil {
			t.Fatal(err)
		}

		// A small family of prompts sharing prefixes pairwise, so inserts
		// exercise splits and sub-block divergence.
		prompts := [][]int{
			seqPrompt(100, 9),
			append(seqPrompt(100, 4), seqPrompt(500, 5)...),
			append(seqPrompt(100, 8), seqPrompt(700, 5)...),
			seqPrompt(900, 5),
			append([]int{100}, seqPrompt(300, 8)...), // diverges inside block 0
			seqPrompt(100, 13),
		}

		pins := map[int]*Pin{} // seq id -> pin, admitted in the pool
		nextSeq := 0
		defer func() {
			for id, p := range pins {
				if err := pool.Release(id); err != nil {
					t.Fatalf("final release %d: %v", id, err)
				}
				p.Release()
			}
			// With every sequence gone and the tree dropped, all blocks
			// must come back.
			if !tr.EnsureFree(blocks, Match{}) {
				t.Fatalf("tree cannot release all blocks: %+v", tr.Stats())
			}
			if pool.FreeBlocks() != blocks {
				t.Fatalf("%d of %d blocks free at teardown — leak", pool.FreeBlocks(), blocks)
			}
		}()

		check := func(op string) {
			t.Helper()
			if err := tr.Validate(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
			st := tr.Stats()
			if st.ResidentBlocks > blocks {
				t.Fatalf("after %s: %d resident blocks in a %d-block pool", op, st.ResidentBlocks, blocks)
			}
			if pool.FreeBlocks() < 0 || pool.FreeBlocks() > blocks {
				t.Fatalf("after %s: free count %d out of range", op, pool.FreeBlocks())
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			p := prompts[int(ops[i+1])%len(prompts)]
			switch ops[i] % 6 {
			case 0: // lookup only
				m := tr.Lookup(p)
				if m.Tokens() >= len(p) {
					t.Fatalf("lookup matched the whole prompt (%d of %d)", m.Tokens(), len(p))
				}
				check("lookup")
			case 1: // admission path: refetch, lookup, pin, shared admit
				tr.Refetch(p)
				m := tr.Lookup(p)
				need := pool.AdmitBlocks(len(p), m.Blocks())
				if pool.FreeBlocks() < need {
					tr.EnsureFree(need, m)
				}
				if pool.FreeBlocks() < need {
					check("admit-reject")
					continue
				}
				pin := tr.Pin(m)
				if err := pool.AdmitShared(nextSeq, len(p), pin.Blocks()); err != nil {
					t.Fatalf("admit with %d free, need %d: %v", pool.FreeBlocks(), need, err)
				}
				pins[nextSeq] = pin
				nextSeq++
				check("admit")
			case 2: // insert (export fabricates rows)
				if _, err := tr.Insert(p, fakeExport); err != nil {
					t.Fatalf("insert: %v", err)
				}
				check("insert")
			case 3: // release the oldest live sequence
				for id := 0; id < nextSeq; id++ {
					if pin, ok := pins[id]; ok {
						if err := pool.Release(id); err != nil {
							t.Fatalf("release %d: %v", id, err)
						}
						pin.Release()
						delete(pins, id)
						break
					}
				}
				check("release")
			case 4: // pressure: force spills/evictions
				tr.EnsureFree(1+int(ops[i+1])%blocks, Match{})
				check("ensure-free")
			case 5: // refetch only
				tr.Refetch(p)
				check("refetch")
			}
		}
	})
}
