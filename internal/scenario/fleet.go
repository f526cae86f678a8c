package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/router"
)

// runFleetTrial is the fleet scenarios' trial body: the virtual leg
// replays the stream through router.FleetReplay — N homogeneous
// replicas behind power-of-two-choices placement, with the fault plan's
// replica kill/respawn as discrete events on the virtual clock — and
// the live leg drives a real router fleet with a mid-traffic hard kill.
// The accounting identity (completed + shed + canceled == requests)
// must close exactly across any number of failovers, on both legs.
func runFleetTrial(cell Cell, stream []streamReq, seed int64, live bool) (TrialResult, error) {
	s, f := cell.Scenario, cell.Fault
	queue, kvTokens := cell.envelope()

	reqs := make([]gateway.ReplayRequest, len(stream))
	for i, r := range stream {
		reqs[i] = r.ReplayRequest
	}
	replicas := make([]router.ReplayReplica, s.Replicas)
	for i := range replicas {
		replicas[i] = router.ReplayReplica{
			Name:          fmt.Sprintf("r%d", i),
			MaxBatch:      s.MaxBatch,
			QueueDepth:    queue,
			KVTokens:      kvTokens,
			KVBlockTokens: 4,
		}
	}
	// The fault plan kills (and maybe respawns) replica 0: the victim
	// is fixed so the trial stays a pure function of the seed.
	if f.ReplicaKillAt > 0 {
		replicas[0].DownAt = f.ReplicaKillAt
		replicas[0].UpAt = f.ReplicaRespawnAt
	}
	res, err := router.FleetReplay(router.FleetConfig{
		Policy:   router.PolicyP2C,
		Seed:     seed,
		Model:    llm.TinyConfig(),
		Replicas: replicas,
	}, reqs)
	if err != nil {
		return TrialResult{}, fmt.Errorf("scenario %s/%s: fleet replay: %w", s.Name, f.Name, err)
	}
	out, err := foldOutcomes(cell, seed, res.ReplayResult)
	if err != nil {
		return TrialResult{}, err
	}
	out.Failovers = res.Failovers

	if live {
		lr, err := runFleetLiveTrial(cell, stream, seed)
		if err != nil {
			return TrialResult{}, err
		}
		out.Live = lr
	}
	return out, nil
}

// runFleetLiveTrial drives a real router fleet over the tiny model with
// concurrent clients. When the fault plan kills a replica, the kill
// fires mid-traffic (after half the submissions have started) so
// in-flight work actually fails over; a planned respawn is verified to
// serve again. The standing invariants are the single-gateway leg's,
// plus the router's own accounting: placed == client successes and
// spilled == client-observed spills.
func runFleetLiveTrial(cell Cell, stream []streamReq, seed int64) (*LiveResult, error) {
	s, f := cell.Scenario, cell.Fault
	modelCfg := llm.TinyConfig()
	baseline := runtime.NumGoroutine()

	queue, kvTokens := cell.envelope()
	specs := make([]router.ReplicaSpec, s.Replicas)
	for i := range specs {
		specs[i] = router.ReplicaSpec{
			Name:   fmt.Sprintf("r%d", i),
			Model:  modelCfg,
			Seed:   seed,
			Policy: core.FullGPU,
			Gateway: gateway.Config{
				MaxBatch:      s.MaxBatch,
				QueueDepth:    queue,
				KVBudget:      kvBudget(kvTokens),
				KVBlockTokens: 4,
			},
		}
	}
	rt, err := router.New(router.Config{Seed: seed}, specs)
	if err != nil {
		return nil, err
	}

	jobs := liveJobs(stream)
	n := len(jobs)

	lr := &LiveResult{Requests: n, BitIdentical: true}
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		unknown   int
		started   atomic.Int64
		killOnce  sync.Once
		completed []liveDone
	)
	kill := f.ReplicaKillAt > 0 && s.Replicas >= 2
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if kill && started.Add(1) == int64(n/2) {
				// Mid-traffic hard kill: queued and running work on r0
				// fails with ErrShuttingDown and fails over through the
				// router's retry loop.
				killOnce.Do(func() { rt.Kill("r0") })
			}
			res, err := rt.Submit(context.Background(), jobs[i].prompt, jobs[i].out)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				lr.Completed++
				completed = append(completed, liveDone{jobs[i], res.Tokens})
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				lr.Canceled++
			case errors.Is(err, router.ErrNoReplicas):
				lr.Shed++
			default:
				unknown++
			}
		}(i)
	}
	wg.Wait()

	// A planned respawn must bring the victim back into service.
	if kill && f.ReplicaRespawnAt > 0 {
		if err := rt.Respawn("r0"); err != nil {
			return nil, fmt.Errorf("scenario %s/%s: live respawn: %w", s.Name, f.Name, err)
		}
		if _, err := rt.Submit(context.Background(), jobs[0].prompt, jobs[0].out); err == nil {
			mu.Lock()
			lr.Completed++
			lr.Requests++
			n++
			mu.Unlock()
		}
	}

	snap := rt.Snapshot()
	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = rt.Shutdown(shCtx)
	shCancel()
	if err != nil {
		return nil, fmt.Errorf("scenario %s/%s: fleet shutdown: %w", s.Name, f.Name, err)
	}

	lr.AccountingExact = unknown == 0 &&
		lr.Completed+lr.Canceled+lr.Shed == n &&
		snap.Placed == uint64(lr.Completed) &&
		snap.Spilled == uint64(lr.Shed)

	// Every replica serves the same seed on the dense tier, so the
	// bit-identity guarantee holds across replicas and failover paths.
	if lr.BitIdentical, err = bitIdentical(seed, completed); err != nil {
		return nil, err
	}
	lr.LeakFree = goroutinesSettle(baseline)
	return lr, nil
}
