package router_test

import (
	"context"
	"fmt"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/router"
)

// Drain takes one replica out of placement for maintenance: it stops
// accepting work at once, finishes what it holds, and ends down, while
// the rest of the fleet keeps serving. Respawn brings it back.
func ExampleRouter_Drain() {
	gw := gateway.Config{MaxBatch: 2, QueueDepth: 8}
	r, err := router.New(router.Config{}, []router.ReplicaSpec{
		{Name: "a", Seed: 42, Policy: core.FullGPU, Gateway: gw},
		{Name: "b", Seed: 42, Policy: core.FullGPU, Gateway: gw},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Drain(ctx, "a"); err != nil {
		fmt.Println(err)
	}
	states := r.Snapshot().Replicas
	fmt.Println("a:", states["a"], "b:", states["b"])
	if err := r.Shutdown(ctx); err != nil {
		fmt.Println(err)
	}
	// Output: a: down b: up
}
