// Command benchmark is this repository's one benchmark: four workloads
// over the whole stack, fifteen end-to-end metrics from an untraced run
// and the per-layer metrics from a traced run. README.md in this
// directory has the tables; BENCHMARK.json at the repository root is
// the contract the acceptance driver reads.
//
//	go run ./benchmark -workload chat_open -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload chat_open -seed 1 -seconds 20 -trace 1 -trace-out t.json
//	go run ./benchmark -list
//	go run ./benchmark -compare before/ after/
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// spinFlag is the mode of the keep-awake spinner children (see
// keepawake_linux.go); it is not part of the command's interface.
const spinFlag = "-spin"

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spin()
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed every generated input comes from")
		secs     = flag.Float64("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans here as Chrome trace-event JSON")
		repOut   = flag.String("report", "", "write the full run report (what -compare reads) to this file")
		list     = flag.Bool("list", false, "print workloads and metric names, then exit")
		compare  = flag.Bool("compare", false, "compare two reports, or two directories of reports: -compare before after")
		smoke    = flag.Bool("smoke", false, "run all four workloads for one second each with the correctness checks on")
	)
	flag.Parse()
	switch {
	case *list:
		fmt.Print(listing())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files or directories, got %d arguments", flag.NArg()))
		}
		regressed, err := compareCmd(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *smoke:
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				rep, err := runWorkload(w.Name, *seed, time.Second, traced, true, "")
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.Name, err))
				}
				rep.table(os.Stderr)
				if !rep.Correct {
					fatal(fmt.Errorf("%s: correctness checks failed", w.Name))
				}
			}
		}
	default:
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
		}
		if *secs <= 0 || (*trace != 0 && *trace != 1) {
			fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
		}
		stop := func() {}
		if w, err := workloadByName(*workload); err == nil && w.keepAwake {
			stop = keepAwake()
		}
		rep, err := runWorkload(*workload, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, false, *traceOut)
		stop()
		if err != nil {
			fatal(err)
		}
		rep.table(os.Stderr)
		if *repOut != "" {
			if err := rep.write(*repOut); err != nil {
				fatal(err)
			}
		}
		line, err := rep.summaryLine()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

// runWorkload runs one workload once and returns its finished report.
func runWorkload(name string, seed int64, d time.Duration, traced, smoke bool, traceOut string) (*report, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	rc := &runCtx{seed: seed, duration: d, traced: traced, smoke: smoke}
	if traced {
		rc.rec = newRecorder()
	}
	rep := newReport(name, rc)
	if err := w.run(rc, rep); err != nil {
		return nil, err
	}
	if traced {
		processMetrics(rep)
		rep.SelfMs = map[string]float64{}
		for name, d := range selfPerName(rc.rec.spans) {
			rep.SelfMs[name] = ms(d)
		}
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return nil, err
			}
			if err := rc.rec.writeChrome(f); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
	}
	rep.finish()
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
