package router

import (
	"bytes"
	"os"
	"testing"

	"github.com/lia-sim/lia/internal/llm"
)

// TestScaleStudyMatchesCommittedArtifact pins the scale study to the
// committed BENCH_fleet.json byte for byte — the declaration `make
// bench-fleet` runs (tiny model, seed 1). A change to FleetReplay,
// serve.Machine or the study matrix that moves one simulated number
// fails here; regenerate the file with `make bench-fleet` only in a
// commit that says which number moved and why. The byte pin would hold a
// wrong file as firmly as a right one, so the matrix arithmetic — device
// rotation, outcome accounting, each row's speed-up over its own
// 1-replica cell, the summary — is checked on the report itself.
func TestScaleStudyMatchesCommittedArtifact(t *testing.T) {
	rep, err := ScaleStudy(llm.TinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ScaleStudy(tiny, seed 1) no longer renders BENCH_fleet.json: %d bytes, committed %d (diff `go run ./cmd/lia-serve -fleet-bench -seed 1` against the file)", len(got), len(want))
	}

	if len(rep.Cells) != 2*2*4 {
		t.Fatalf("%d cells, want policy × mix × {1,2,4,8} = 16", len(rep.Cells))
	}
	rotation := []string{"a100", "h100", "cpu-amx", "a100-tp4"}
	var base float64
	for i, c := range rep.Cells {
		if wantN := 1 << (i % 4); c.Replicas != wantN || len(c.Devices) != wantN {
			t.Fatalf("cell %d: %d replicas over %d devices, want %d", i, c.Replicas, len(c.Devices), wantN)
		}
		for j, d := range c.Devices {
			want := rotation[0]
			if c.Mix == "mixed" {
				want = rotation[j%len(rotation)]
			}
			if d != want {
				t.Errorf("%s/%s/%d: device %d is %s, want %s", c.Policy, c.Mix, c.Replicas, j, d, want)
			}
		}
		if c.Completed+c.Shed != rep.Requests {
			t.Errorf("%s/%s/%d: %d completed + %d shed of %d requests", c.Policy, c.Mix, c.Replicas, c.Completed, c.Shed, rep.Requests)
		}
		// Every row of four is normalised by its own 1-replica cell.
		if c.Replicas == 1 {
			base = c.ThroughputRPS
		}
		if want := c.ThroughputRPS / base; c.SpeedupVs1 != want {
			t.Errorf("%s/%s/%d: speed-up %v, want %v over its row's 1-replica cell", c.Policy, c.Mix, c.Replicas, c.SpeedupVs1, want)
		}
	}
	if len(rep.Summary) != 2*2+1 {
		t.Errorf("summary has %d entries, want one 4-replica speed-up per policy × mix plus the note: %v", len(rep.Summary), rep.Summary)
	}
}
