package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of one (metric, workload) row of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// loadReports reads one report file, or every *.json report in a
// directory (one set of runs).
func loadReports(path string) ([]*report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := &report{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if _, err := workloadByName(r.Workload); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return out, nil
}

// cell is one (workload, metric) pairing's values over a set of runs,
// by seed for the exact check.
type cell struct {
	values sample
	bySeed map[int64]float64
}

type cellKey struct{ workload, metric string }

func collect(reports []*report) (map[cellKey]*cell, error) {
	out := map[cellKey]*cell{}
	for _, r := range reports {
		if !r.Correct {
			return nil, fmt.Errorf("run of %s seed %d failed its correctness checks; its numbers are not comparable", r.Workload, r.Seed)
		}
		for _, m := range r.Metrics {
			if _, ok := metricByName(m.Name); !ok {
				return nil, fmt.Errorf("report of %s names unknown metric %q", r.Workload, m.Name)
			}
			if m.Echo || (r.Traced && m.N == 0) {
				continue // not measured on this workload
			}
			k := cellKey{r.Workload, m.Name}
			if out[k] == nil {
				out[k] = &cell{bySeed: map[int64]float64{}}
			}
			out[k].values = append(out[k].values, m.Value)
			out[k].bySeed[r.Seed] = m.Value
		}
	}
	return out, nil
}

// relSpread is a set's inter-quartile range as a share of its median;
// 0 for a single run, whose spread is unknown.
func relSpread(s sample) float64 {
	if len(s) < 2 || median(s) == 0 {
		return 0
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / median(s)
}

// judge applies a metric's bound to two sets of runs. A row regresses
// when the change's median is worse than the parent's by more than the
// bound. Within the bound it is still unresolved, not unchanged, when
// either side's run-to-run spread is wider than the bound — unless
// every run of the change reads better than every run of the parent.
func judge(def metricDef, a, b sample) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == higher {
			worse = -worse
		}
	}
	if worse > def.Bound {
		return worse, verdictRegressed
	}
	if max(relSpread(a), relSpread(b)) > def.Bound && !allBetter(def, a, b) {
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(def metricDef, a, b sample) bool {
	sa, sb := a.sorted(), b.sorted()
	if def.Better == higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareCmd prints one row per (end-to-end metric, workload) pairing
// present on both sides and checks every exact metric seed by seed. It
// reports whether anything regressed.
func compareCmd(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	ra, err := loadReports(pathA)
	if err != nil {
		return false, err
	}
	rb, err := loadReports(pathB)
	if err != nil {
		return false, err
	}
	ca, err := collect(ra)
	if err != nil {
		return false, err
	}
	cb, err := collect(rb)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-24s %6s %14s %14s %8s %6s  %s\n", "workload", "metric", "runs", "before", "after", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			k := cellKey{wl.Name, def.Name}
			a, b := ca[k], cb[k]
			if a == nil || b == nil {
				continue
			}
			worse, verdict := judge(def, a.values, b.values)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-14s %-24s %3d/%-3d %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", wl.Name, def.Name,
				len(a.values), len(b.values), median(a.values), median(b.values), 100*worse, 100*def.Bound, verdict)
		}
	}
	// Exact metrics must repeat bit-for-bit under one seed.
	var keys []cellKey
	for k := range ca {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].workload+keys[i].metric < keys[j].workload+keys[j].metric
	})
	for _, k := range keys {
		def, _ := metricByName(k.metric)
		if !def.Exact || cb[k] == nil {
			continue
		}
		for seed, va := range ca[k].bySeed {
			if vb, ok := cb[k].bySeed[seed]; ok && va != vb {
				regressed = true
				fmt.Fprintf(w, "%-14s %-24s seed %d: exact metric differs: %v vs %v  %s\n", k.workload, k.metric, seed, va, vb, verdictRegressed)
			}
		}
	}
	return regressed, nil
}
