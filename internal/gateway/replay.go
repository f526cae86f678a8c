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
// priced by the injected cost model — served by the single-replica
// driver, with arrivals released by time instead of a live queue. The
// differential test replays one trace through this and through
// serve.SimulateContinuous and requires bit-identical event streams:
// same admissions, same preemption victims, same completion order.
//
// With the abandonment fields zero and QueueDepth 0 the behaviour (and
// the event stream) is exactly the historical one. Nonzero CancelAt or
// Deadline values are honoured between rounds: expired waiting requests
// leave the queue, expired running sequences are removed mid-flight
// (emitting EventRemove, like the live reaper), and expired preempted
// requests are dropped from the requeue. QueueDepth sheds arrivals that
// find a full backlog. Everything stays deterministic — the scenario
// harness replays chaos plans through this and requires byte-identical
// results across runs.
func Replay(cfg ReplayConfig, reqs []ReplayRequest) (ReplayResult, error) {
	led, err := serve.NewLedger(reqs)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("gateway: replay: %w", err)
	}
	m, err := serve.NewMachine(cfg, led)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("gateway: replay: %w", err)
	}
	if err := m.Run(); err != nil {
		return ReplayResult{}, err
	}
	return led.ReplayResult, nil
}
