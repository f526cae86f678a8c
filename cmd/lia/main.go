// Command lia estimates end-to-end LLM inference performance for one
// configuration: a framework (LIA, IPEX, FlexGen, PowerInfer, MultiGPU),
// a system, a model, and a workload shape.
//
// Example:
//
//	lia -framework LIA -system SPR-A100 -model OPT-30B -batch 64 -lin 256 -lout 32
//	lia -framework LIA -system SPR-A100 -model OPT-30B -batch 900 -lin 32 -lout 32 -cxl 2 -cxl-params
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/lia-sim/lia"
	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/exec"
	"github.com/lia-sim/lia/internal/hw"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/report"
)

func main() {
	var (
		frameworkName = flag.String("framework", "LIA", "framework: LIA, IPEX, FlexGen, PowerInfer, MultiGPU, ZeRO")
		systemName    = flag.String("system", "SPR-A100", "system: SPR-A100, SPR-H100, GNR-A100, GNR-H100, GH200, DGX-A100")
		modelName     = flag.String("model", "OPT-30B", "model name, e.g. OPT-30B, OPT-175B, Llama2-70B")
		batch         = flag.Int("batch", 1, "batch size B")
		lin           = flag.Int("lin", 512, "input token length L_in")
		lout          = flag.Int("lout", 32, "output token length L_out")
		cxlCount      = flag.Int("cxl", 0, "number of 128 GB CXL expanders to install")
		cxlParams     = flag.Bool("cxl-params", false, "place parameters in CXL (the §6 policy)")
		assume        = flag.Bool("assume-capacity", false, "skip the host-memory OOM check (the paper's latency-model mode)")
		showTrace     = flag.Bool("trace", false, "print an ASCII Gantt of one decode step's schedule (LIA only)")
		systemFile    = flag.String("system-file", "", "JSON system description (overrides -system; see internal/hw/config.go for the schema)")
	)
	flag.Parse()

	fw, err := lia.FrameworkByName(*frameworkName)
	if err != nil {
		fatal(err)
	}
	var sys lia.System
	if *systemFile != "" {
		sys, err = hw.LoadSystem(*systemFile)
	} else {
		sys, err = lia.SystemByName(*systemName)
	}
	if err != nil {
		fatal(err)
	}
	m, err := lia.ModelByName(*modelName)
	if err != nil {
		fatal(err)
	}
	if *cxlCount > 0 {
		sys = lia.WithCXL(sys, *cxlCount)
	}
	cfg := lia.Config{
		Framework:          fw,
		System:             sys,
		Model:              m,
		Workload:           lia.Workload{Batch: *batch, InputLen: *lin, OutputLen: *lout},
		AssumeHostCapacity: *assume,
	}
	if *cxlParams {
		cfg.Placement = lia.CXLPolicyPlacement()
	}

	res, err := lia.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if res.OOM {
		fmt.Printf("%s on %s with %s (%s): OOM — %s\n", fw, sys.Name, m.Name, cfg.Workload, res.OOMReason)
		os.Exit(2)
	}
	fmt.Printf("%s on %s, %s, %s\n", fw, sys.Name, m.Name, cfg.Workload)
	fmt.Printf("  prefill latency : %v\n", res.PrefillLatency)
	fmt.Printf("  decode latency  : %v\n", res.DecodeLatency)
	fmt.Printf("  total latency   : %v (s/query)\n", res.Latency)
	fmt.Printf("  throughput      : %.2f tokens/s\n", res.Throughput)
	fmt.Printf("  energy/token    : %v\n", res.EnergyPerToken)
	fmt.Printf("  prefill policy  : %s\n", res.PrefillPolicy)
	fmt.Printf("  decode policy   : %s\n", res.DecodePolicy)
	fmt.Printf("  pinned layers   : %d/%d (KV on GPU: %v)\n", res.PinnedLayers, m.Layers, res.KVOnGPU)
	fmt.Printf("  busy times      : CPU %v, GPU %v, PCIe %v\n", res.Breakdown.CPU, res.Breakdown.GPU, res.Breakdown.Comm)
	fmt.Printf("  host memory     : %s\n", res.HostPlan)

	if *showTrace && fw == lia.LIA {
		printTrace(cfg, res)
	}
}

// printTrace renders one decode step's overlapped schedule (Figure 7) for
// the policy the run chose, limited to the first few layers for
// readability.
func printTrace(cfg lia.Config, res lia.Result) {
	env := core.NewEnvWithPlacement(cfg.System, cfg.Model, cfg.Placement)
	layers := cfg.Model.Layers
	if layers > 6 {
		layers = 6
	}
	// Show both pinned and streamed layers in the window when the real
	// plan has a mix.
	pinned := res.PinnedLayers
	if pinned > layers/2 && res.PinnedLayers < cfg.Model.Layers {
		pinned = layers / 2
	}
	if pinned > layers {
		pinned = layers
	}
	plan := exec.Plan{
		Env:          env,
		Policy:       res.DecodePolicy,
		Opt:          core.Options{KVOnGPU: res.KVOnGPU},
		Layers:       layers,
		PinnedLayers: pinned,
		Overlap:      true,
		MiniBatches:  1,
	}
	_, entries, err := plan.TraceStage(model.Decode, cfg.Workload.Batch, cfg.Workload.InputLen)
	if err != nil {
		fatal(err)
	}
	rows := make([]report.GanttRow, 0, len(entries))
	for _, e := range entries {
		if e.Finish == e.Start {
			continue // skip zero-cost tasks for readability
		}
		rows = append(rows, report.GanttRow{
			Label: e.ID, Lane: e.Resource,
			Start: float64(e.Start), Finish: float64(e.Finish),
		})
	}
	fmt.Println()
	fmt.Print(report.Gantt(fmt.Sprintf("decode-step schedule, first %d layers, policy %s", layers, res.DecodePolicy), rows, 64))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lia:", err)
	os.Exit(1)
}
