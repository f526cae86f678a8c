package gateway

import (
	"fmt"

	"github.com/lia-sim/lia/internal/serve"
)

// The replay vocabulary lives next to the virtual machine that speaks it
// (serve.Machine); the gateway keeps its historical names.
type (
	ReplayRequest = serve.ReplayRequest
	ReplayOutcome = serve.ReplayOutcome
	ReplayConfig  = serve.ReplayConfig
	ReplayResult  = serve.ReplayResult
)

// Replay outcomes (see serve.ReplayOutcome).
const (
	ReplayCompleted = serve.ReplayCompleted
	ReplayShed      = serve.ReplayShed
	ReplayCanceled  = serve.ReplayCanceled
)

// Replay is the gateway on the virtual clock: one serve.Machine — the
// same batchpolicy.Round skeleton and Scheduler.Reap pass run() uses,
// priced by the injected cost model — driven by serve.Drive, with
// arrivals released by time instead of a live queue. CancelAt and
// Deadline are honoured between rounds (expired waiting requests leave
// the queue, expired running and requeued ones are removed with
// EventRemove, like the live reaper), QueueDepth sheds an arrival that
// finds a full backlog, and cfg.PrefillChunk runs the batcher's chunk
// mode. The result is a pure function of its inputs: the scenario
// harness replays chaos plans through this and requires byte-identical
// results across runs.
func Replay(cfg ReplayConfig, reqs []ReplayRequest) (ReplayResult, error) {
	m, err := serve.NewMachine(cfg)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("gateway: replay: %w", err)
	}
	res, _, err := serve.Drive(reqs, []*serve.Machine{m}, nil, nil)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("gateway: replay: %w", err)
	}
	return res, nil
}
