package kvpage_test

import (
	"fmt"

	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/units"
)

// The capacity question a paged KV pool answers before any request
// arrives: how many sequences of a mean length fit, alone and when each
// starts with a prefix the prefix cache holds once for all of them. This
// pool is EXPERIMENTS.md's hot-prefix one: 128 blocks of 4 tokens,
// 64-token sequences, a 48-token shared prefix.
func ExampleManager_MaxConcurrentSequences() {
	m, err := kvpage.NewManager(128*4*units.KiB, 4, units.KiB)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("isolated:", m.MaxConcurrentSequences(64))
	fmt.Println("shared prefix:", m.MaxConcurrentSequencesShared(64, 48))
	// Output:
	// isolated: 7
	// shared prefix: 23
}
