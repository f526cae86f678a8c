package main

import (
	"io"

	"github.com/lia-sim/lia/internal/router"
)

// runFleetBench runs the fleet scale study (router.ScaleStudy) on the
// named functional model and writes its JSON artifact — the
// BENCH_fleet.json baseline, byte-for-byte reproducible from (model,
// seed).
func runFleetBench(w io.Writer, modelName string, seed int64) error {
	cfg, err := liveModelConfig(modelName)
	if err != nil {
		return err
	}
	rep, err := router.ScaleStudy(cfg, seed)
	if err != nil {
		return err
	}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
